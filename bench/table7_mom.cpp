// Table 7 — MOM ocean model benchmark: time for 350 timesteps of the
// 1-degree / 45-level global configuration, and speedup vs one processor.
//
// Paper values (seconds): 1 -> 1861.25, 4 -> 696.92, 8 -> 519.74,
// 16 -> 331.67, 32 -> 226.62; the paper's speedup column reads 1.00, 2.70,
// 3.66, 5.88, 9.06. The paper notes the modest scalability is "in part due
// to the fact that the benchmark prints out model diagnostics every 10
// timesteps and in part with the algorithms and coding of the application".
//
// Method: as in the paper, initialization is excluded (we measure steady
// steps); per-step simulated cost is averaged over one 10-step diagnostics
// cycle and extrapolated to 350 steps.

#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "harness/reporter.hpp"
#include "harness/trace_report.hpp"
#include "ocean/mom.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("table7_mom", argc, argv);
  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);
  // Streaming trace sink (SX4NCAR_TRACE=stream); inactive in other modes.
  bench::StreamTrace stream(rep.aux_path("trace.sxt"), node);
  ocean::Mom mom(ocean::MomConfig::high_resolution(), node);

  print_banner(std::cout, "Table 7: MOM 1-degree x 45-level, 350 timesteps");
  std::printf("land mask: %.0f%% ocean, block imbalance at 32 CPUs %.2f\n\n",
              100.0 * mom.mask().ocean_fraction(),
              mom.mask().block_imbalance(32));

  struct Row {
    int cpus;
    double paper_s;
  };
  const Row rows[] = {{1, 1861.25}, {4, 696.92}, {8, 519.74},
                      {16, 331.67}, {32, 226.62}};
  Table t({"CPUs", "Paper (s)", "Model (s)", "Model/Paper", "Speedup (model)",
           "Speedup (paper times)"});
  double t1 = 0;
  bool ok = true;
  for (const auto& row : rows) {
    node.reset();
    // The ocean numerics don't depend on the CPU count, so only the first
    // row runs them; the other rows replay the charge sequence against a
    // fresh node (bit-identical timing, see Mom::charge_step) and leave the
    // after-10-steps physical state from row 1 for the diagnostics below.
    double per_step;
    if (row.cpus == 1) {
      mom.reset();
      per_step = mom.measure_step_seconds(row.cpus, 10);
    } else {
      per_step = mom.measure_charge_seconds(row.cpus, 10);
    }
    const double time350 = per_step * 350.0;
    if (row.cpus == 1) t1 = time350;
    const double ratio = time350 / row.paper_s;
    t.add_row({std::to_string(row.cpus), format_fixed(row.paper_s, 2),
               format_fixed(time350, 2), format_fixed(ratio, 3),
               format_fixed(t1 / time350, 2),
               format_fixed(1861.25 / row.paper_s, 2)});
    ok = ok && ratio > 0.8 && ratio < 1.25;
    rep.expect("table7.mom.seconds@cpus=" + std::to_string(row.cpus), time350,
               bench::Band::relative(row.paper_s, 0.25), "paper Table 7", "s");
    rep.metric("table7.mom.speedup@cpus=" + std::to_string(row.cpus),
               t1 / time350);
  }
  t.print(std::cout);

  rep.metric("table7.mom.sor_residual", mom.last_sor_residual());
  rep.expect("table7.mom.mean_temperature_c", mom.mean_temperature(),
             bench::Band::range(-2.0, 30.0), "physical ocean range", "C");

  std::printf("\nSOR residual after the rigid-lid solve: %.2e\n",
              mom.last_sor_residual());
  std::printf("mean ocean temperature: %.3f C (physical range)\n",
              mom.mean_temperature());
  std::printf("all times within 25%% of the paper: %s\n", ok ? "yes" : "NO");
  rep.cost_cache_counters(static_cast<double>(node.cost_cache_hits()),
                          static_cast<double>(node.cost_cache_misses()));
  // Attribution covers the last sweep point (32 CPUs, charge replay).
  bench::print_attribution(std::cout, node);
  bench::report_attribution(rep, "table7", node);
  stream.finish(rep);
  return rep.finish(std::cout);
}
