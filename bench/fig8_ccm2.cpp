// Figure 8 (and Table 4) — CCM2 sustained Cray-equivalent Gflops vs
// processor count for three resolutions on the SX-4/32 (9.2 ns clock).
//
// Paper anchors: T170L18 on 32 processors sustains 24 Gflops; "the SX-4
// runs most efficiently on long vector problems and medium and large
// problems scale reasonably well" (small T42 flattens at high processor
// counts). Table 4's grid shapes and time steps are printed first.

#include <cstdio>
#include <iostream>

#include "ccm2/model.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "harness/reporter.hpp"
#include "harness/trace_report.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("fig8_ccm2", argc, argv);

  print_banner(std::cout, "Table 4: CCM2 resolutions");
  Table t4({"Resolution", "Grid (lat x lon)", "Levels", "Time step"});
  for (const auto& r : ccm2::table4()) {
    t4.add_row({r.name, std::to_string(r.nlat) + " x " + std::to_string(r.nlon),
                std::to_string(r.nlev),
                format_fixed(r.dt_seconds / 60.0, 1) + " min"});
  }
  t4.print(std::cout);

  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);
  // Streaming trace sink (SX4NCAR_TRACE=stream); inactive in other modes.
  bench::StreamTrace stream(rep.aux_path("trace.sxt"), node);
  const bool full = rep.full_mode();

  print_banner(std::cout,
               "Figure 8: CCM2 sustained Cray-equivalent Gflops, SX-4/32");
  Table t({"Resolution", "CPUs", "Gflops", "Speedup"});
  double t170_32 = 0, t42_eff = 0, t170_eff = 0;
  std::vector<ccm2::Resolution> resolutions = {ccm2::t42l18(), ccm2::t106l18(),
                                               ccm2::t170l18()};
  for (const auto& res : resolutions) {
    ccm2::Ccm2Config c;
    c.res = res;
    c.active_levels = full ? 2 : 1;
    ccm2::Ccm2 model(c, node);
    double g1 = 0;
    for (int p : {1, 2, 4, 8, 16, 32}) {
      node.reset();
      // Gflops depend only on the charge sequence, never on the prognostic
      // fields, so the sweep replays charges (see Ccm2::charge_step) instead
      // of re-running the host numerics at every CPU count.
      const double g = model.charge_sustained_equiv_gflops(p, full ? 2 : 1);
      if (p == 1) g1 = g;
      t.add_row({res.name, std::to_string(p), format_fixed(g, 2),
                 format_fixed(g / g1, 2)});
      rep.metric("fig8.ccm2." + res.name + ".gflops@cpus=" + std::to_string(p),
                 g, "Gflops");
      if (res.name == "T170L18" && p == 32) {
        t170_32 = g;
        t170_eff = g / g1 / 32.0;
      }
      if (res.name == "T42L18" && p == 32) t42_eff = g / g1 / 32.0;
    }
  }
  t.print(std::cout);

  rep.expect("fig8.ccm2.t170_gflops@cpus=32", t170_32,
             bench::Band::relative(24.0, 0.25),
             "paper Fig 8: T170L18 sustains 24 Gflops on 32 CPUs", "Gflops");
  rep.metric("fig8.ccm2.t42_efficiency@cpus=32", t42_eff);
  rep.metric("fig8.ccm2.t170_efficiency@cpus=32", t170_eff);
  rep.expect_true("fig8.larger_problems_scale_better", t170_eff > t42_eff,
                  "paper prose: medium and large problems scale reasonably "
                  "well, small ones flatten");

  std::printf("\nT170L18 on 32 CPUs: %.1f Gflops (paper: 24), ratio %.2f\n",
              t170_32, t170_32 / 24.0);
  std::printf("parallel efficiency at 32 CPUs: T42 %.0f%%, T170 %.0f%%\n",
              100 * t42_eff, 100 * t170_eff);
  const bool anchor = t170_32 > 0.8 * 24.0 && t170_32 < 1.25 * 24.0;
  const bool shape = t170_eff > t42_eff;
  std::printf("T170 within 25%% of paper: %s; larger problems scale better: %s\n",
              anchor ? "yes" : "NO", shape ? "yes" : "NO");
  rep.cost_cache_counters(static_cast<double>(node.cost_cache_hits()),
                          static_cast<double>(node.cost_cache_misses()));
  // Attribution covers the last sweep point (T170L18 on 32 CPUs): node.reset()
  // clears the collectors with the cycle counters. No-op when tracing is off.
  bench::print_attribution(std::cout, node);
  bench::report_attribution(rep, "fig8", node);
  if (stream.finish(rep)) {
    if (trace::mode() == trace::Mode::Full) {
      std::printf("chrome trace: %s\n", rep.trace_path().c_str());
    }
    std::printf("stream trace: %s\n", rep.aux_path("trace.sxt").c_str());
  }
  return rep.finish(std::cout);
}
