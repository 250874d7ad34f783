// Table 5 — time to simulate one year of climate on the SX-4/32, with
// daily average climate statistics written each model day.
//
// Paper: T42L18 in 1327.53 s; T63L18 in 3452.48 s, the latter writing
// approximately 15 GB of model data and restart information ("completed a
// one year simulation of global climate at T63L18 in 57.5 minutes").
//
// Method: per-step simulated cost is measured over a few real steps on 32
// CPUs, the year is extrapolated (26,280 steps at T42's 20-minute step;
// 43,800 at T63's 12-minute step), and the daily history write goes through
// the disk-subsystem model.

#include <cstdio>
#include <iostream>

#include "ccm2/model.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "harness/reporter.hpp"
#include "harness/trace_report.hpp"
#include "iosim/disk.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("table5_ccm2_year", argc, argv);
  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);
  // Streaming trace sink (SX4NCAR_TRACE=stream); inactive in other modes.
  bench::StreamTrace stream(rep.aux_path("trace.sxt"), node);
  iosim::DiskSystem disk;

  print_banner(std::cout, "Table 5: one-year simulation time, SX-4/32");
  Table t({"Resolution", "Paper (s)", "Model (s)", "Model/Paper",
           "History GB/yr"});

  struct Target {
    ccm2::Resolution res;
    double paper_s;
  };
  bool ok = true;
  for (const auto& [res, paper] :
       {Target{ccm2::t42l18(), 1327.53}, Target{ccm2::t63l18(), 3452.48}}) {
    ccm2::Ccm2Config c;
    c.res = res;
    ccm2::Ccm2 model(c, node);
    node.reset();
    // Timing only — replay the charge sequence instead of integrating the
    // dycore (bit-identical per-step seconds, see Ccm2::charge_step).
    const double per_step = model.measure_charge_seconds(32, 3);
    const long steps = res.steps_per_day() * 365;
    const double hist = model.write_history(disk, 32).value();
    const double year = per_step * steps + hist * 365;
    const double gb = model.history_bytes().value() * 365 / 1e9;
    t.add_row({res.name, format_fixed(paper, 2), format_fixed(year, 2),
               format_fixed(year / paper, 3), format_fixed(gb, 1)});
    ok = ok && year / paper > 0.75 && year / paper < 1.25;
    rep.expect("table5.year_seconds." + res.name, year,
               bench::Band::relative(paper, 0.25), "paper Table 5", "s");
    if (res.name == "T63L18") {
      rep.expect("table5.history_gb_per_year." + res.name, gb,
                 bench::Band::relative(15.0, 0.25),
                 "paper: the T63 run wrote approximately 15 GB", "GB");
    } else {
      rep.metric("table5.history_gb_per_year." + res.name, gb, "GB");
    }
  }
  t.print(std::cout);

  std::printf("\nT63L18 run wrote ~15 GB in the paper; both times within 25%%: %s\n",
              ok ? "yes" : "NO");
  rep.cost_cache_counters(static_cast<double>(node.cost_cache_hits()),
                          static_cast<double>(node.cost_cache_misses()));
  // Attribution covers the T63L18 measurement (last node.reset()).
  bench::print_attribution(std::cout, node);
  bench::report_attribution(rep, "table5", node);
  stream.finish(rep);
  return rep.finish(std::cout);
}
