// design_sweep — the machine design-space exploration bench.
//
// The paper's Table 1 contrasts five machines on two kernels; this bench
// contrasts *thousands*. It expands parameter ranges (arithmetic pipes,
// vector length, memory port width, bank count, clock) over a catalog base
// machine into a lazy cartesian grid (src/machines/sweep.hpp), records the
// chosen kernel's op stream once, replays it against every design point on
// the host thread pool, pricing each distinct charge once per config,
// classifies each point memory-bound vs compute-bound via perturbation
// twins, and flags the flip boundaries. The full per-point report is written as
// deterministic JSON next to the result file (harness/sweep_report.hpp) —
// byte-identical across host-thread policies and repeat runs (ctest
// design_sweep_determinism pins this).
//
// Deliberately NOT in SX4NCAR_BENCH_MAINS: like prodload_year, it is a
// capacity/exploration bench pinned by its own smoke + determinism tests
// (the committed baseline set stays at exactly the 16 paper benches).
//
// Knobs (environment):
//   SX4NCAR_SWEEP_KERNEL  radabs | hint | vfft        (default radabs)
//   SX4NCAR_SWEEP_BASE    catalog machine to sweep    (default NEC SX-4/1)
//   SX4NCAR_SWEEP_PIPES   comma list of pipe counts   (default 1,2,4,8,16,32)
//   SX4NCAR_SWEEP_VL      comma list of vector lengths(default 32,...,512)
//   SX4NCAR_SWEEP_PORT    comma list of port widths   (default 16,...,256)
//   SX4NCAR_SWEEP_BANKS   comma list of bank counts   (default 256,...,2048)
//   SX4NCAR_SWEEP_CLOCKS  comma list of clock periods (default 9.2,8)
//   SX4NCAR_SWEEP_REPORT  report path (default <results>/design_sweep.report.json)
//
// The lists take numbers above 0. A malformed knob stops the run with
// exit 2 and a message naming it (harness/knobs.hpp).

#include <cctype>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "harness/knobs.hpp"
#include "harness/reporter.hpp"
#include "harness/sweep_report.hpp"
#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "sxs/execution_policy.hpp"

namespace {

using ncar::machines::Axis;
using ncar::machines::Grid;
using ncar::machines::SweepReport;

/// What the SX4NCAR_SWEEP_* knobs select.
struct SweepKnobs {
  std::string kernel;
  std::string base;
  std::vector<Axis> axes;
  std::string report;
};

SweepKnobs read_sweep_knobs(const std::string& default_report) {
  using ncar::bench::knob_positive_list;
  SweepKnobs k;
  k.kernel = ncar::bench::knob_choice("SX4NCAR_SWEEP_KERNEL", "radabs",
                                      ncar::machines::probe_kernels());
  k.base = ncar::bench::knob_choice("SX4NCAR_SWEEP_BASE", "NEC SX-4/1",
                                    ncar::machines::builtin_names());
  k.axes = {
      {"pipes_per_group",
       knob_positive_list("SX4NCAR_SWEEP_PIPES", {1, 2, 4, 8, 16, 32})},
      {"vector_length",
       knob_positive_list("SX4NCAR_SWEEP_VL", {32, 64, 128, 256, 512})},
      {"port_bytes_per_clock",
       knob_positive_list("SX4NCAR_SWEEP_PORT", {16, 32, 64, 128, 256})},
      {"memory_banks",
       knob_positive_list("SX4NCAR_SWEEP_BANKS", {256, 512, 1024, 2048})},
      {"clock_ns", knob_positive_list("SX4NCAR_SWEEP_CLOCKS", {9.2, 8})},
  };
  k.report = ncar::bench::knob_string("SX4NCAR_SWEEP_REPORT", default_report);
  return k;
}

/// Metric-name slug for a catalog machine ("NEC SX-4/1" -> "nec_sx_4_1").
std::string slug(const std::string& name) {
  std::string out;
  bool gap = false;
  for (const char ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      if (gap && !out.empty()) out += '_';
      gap = false;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else {
      gap = true;
    }
  }
  return out;
}

std::string format_values(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += ncar::machines::format_number(values[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("design_sweep", argc, argv);

  const SweepKnobs knobs = rep.read_knobs(
      [&] { return read_sweep_knobs(rep.aux_path("report.json")); });
  const std::string& kernel = knobs.kernel;
  const std::string& base_name = knobs.base;
  const std::vector<Axis>& axes = knobs.axes;

  const Grid grid(machines::builtin_catalog().at(base_name), axes);

  machines::SweepOptions opts;
  opts.kernel = kernel;
  opts.policy = sxs::default_execution_policy();

  const auto host_start = std::chrono::steady_clock::now();
  const SweepReport report = machines::run_sweep(grid, opts);
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  print_banner(std::cout, "DESIGN SWEEP: " + std::to_string(grid.size()) +
                              " machines descended from " + base_name);
  Table t({"Quantity", "Value"});
  t.add_row({"kernel", kernel});
  for (const Axis& axis : grid.axes()) {
    t.add_row({"axis " + axis.key, format_values(axis.values)});
  }
  t.add_row({"grid points", std::to_string(report.points.size())});
  t.add_row({"valid points", std::to_string(report.valid_count())});
  t.add_row({"memory-bound", std::to_string(report.memory_bound_count())});
  t.add_row({"compute-bound",
             std::to_string(report.valid_count() -
                            report.memory_bound_count())});
  t.add_row({"flip edges", std::to_string(report.flips.size())});
  t.print(std::cout);

  const machines::PointResult* best = report.fastest();
  NCAR_REQUIRE(best != nullptr, "sweep produced no valid design point");
  std::printf("\nfastest design point (#%zu):", best->index);
  for (std::size_t a = 0; a < grid.axes().size(); ++a) {
    std::printf(" %s=%s", grid.axes()[a].key.c_str(),
                machines::format_number(best->values[a]).c_str());
  }
  std::printf("\n  %s seconds, %.0f hw Mflops, %s\n",
              machines::format_number(best->seconds).c_str(),
              best->hw_mflops, best->memory_bound ? "memory-bound" : "compute-bound");

  // Rank the full catalog on the probe the sweep replayed (recorded once
  // per process) — the modern design points (SX-Aurora, A64FX, RVV)
  // against the 1996 fleet.
  const machines::Probe& probe = machines::record_probe(kernel);
  std::printf("\ncatalog machines on the same %s probe:\n", kernel.c_str());
  Table rank({"Machine", "Seconds", "HW Mflops"});
  for (const auto& name : machines::builtin_names()) {
    const machines::Replay r =
        machines::replay_probe(probe, machines::spec_for(name));
    rank.add_row({name, machines::format_number(r.seconds),
                  std::to_string(static_cast<long>(
                      r.seconds > 0 ? r.hw_flops / r.seconds / 1e6 : 0))});
    rep.metric("design_sweep.catalog." + slug(name) + ".seconds", r.seconds,
               "s");
  }
  rank.print(std::cout);

  const std::string& report_path = knobs.report;
  bool report_written = false;
  try {
    bench::sweep_report_json(report).save(report_path);
    report_written = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "design_sweep: %s\n", e.what());
  }
  std::printf("\nfull per-point report: %s\n", report_path.c_str());

  rep.metric("design_sweep.grid_size",
             static_cast<double>(report.points.size()));
  rep.metric("design_sweep.valid_points",
             static_cast<double>(report.valid_count()));
  rep.metric("design_sweep.memory_bound_points",
             static_cast<double>(report.memory_bound_count()));
  rep.metric("design_sweep.flip_edges",
             static_cast<double>(report.flips.size()));
  rep.metric("design_sweep.fastest.seconds", best->seconds, "s");
  rep.metric("design_sweep.fastest.index",
             static_cast<double>(best->index));
  rep.metric("design_sweep.probe_ops",
             static_cast<double>(probe.ops.size()));
  rep.cost_cache_counters(static_cast<double>(report.cache_hits),
                          static_cast<double>(report.cache_misses));
  // Host-dependent gauges ride as host metrics: omitted under
  // --deterministic, never baselined.
  rep.host_metric("design_sweep.configs_per_sec",
                  host_s > 0 ? static_cast<double>(report.points.size()) /
                                   host_s
                             : 0.0,
                  "configs/s");
  rep.host_metric("design_sweep.peak_live_workspaces",
                  static_cast<double>(report.peak_live_workspaces));

  rep.expect_true("design_sweep.grid_at_least_1000",
                  report.points.size() >= 1000,
                  "the CI smoke sweep must cover >= 1000 configs");
  rep.expect_true("design_sweep.all_points_evaluated",
                  report.valid_count() >= 1 &&
                      report.valid_count() <= report.points.size(),
                  "every grid point must be evaluated");
  rep.expect_true("design_sweep.classification_total",
                  report.memory_bound_count() <= report.valid_count(),
                  "memory-bound points are a subset of valid points");
  rep.expect_true("design_sweep.flip_boundary_found",
                  !report.flips.empty(),
                  "the default grid straddles the memory/compute boundary");
  rep.expect_true("design_sweep.report_written", report_written,
                  "the per-point JSON report must be written");
  return rep.finish(std::cout);
}
