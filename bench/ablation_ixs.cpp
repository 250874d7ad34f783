// Ablation: multi-node SX-4 over the IXS (paper sections 2.5 and the
// SX-4/512 full configuration).
//
// The paper benchmarks a single 32-CPU node; the architecture section
// describes joining up to 16 such nodes through the IXS crossbar (8 GB/s
// in + out per node, 128 GB/s bisection) with a single system image. This
// bench projects the CCM2 T170L18 workload across 1..16 nodes: each step's
// parallelisable work divides across nodes, the per-step serial section
// does not, and the spectral transposition (grid <-> wavenumber layouts)
// crosses the IXS twice per step.

#include <cstdio>
#include <iostream>

#include "ccm2/model.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "harness/reporter.hpp"
#include "harness/trace_report.hpp"
#include "sxs/ixs.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("ablation_ixs", argc, argv);
  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);
  // Streaming trace sink (SX4NCAR_TRACE=stream); inactive in other modes.
  bench::StreamTrace stream(rep.aux_path("trace.sxt"), node);

  ccm2::Ccm2Config c;
  c.res = ccm2::t170l18();
  c.active_levels = 1;
  ccm2::Ccm2 model(c, node);

  // Measure the single-node step and its serial component. Timing only, so
  // replay the charge sequence twice (bit-identical to two step() calls,
  // see Ccm2::charge_step) and read the second step's timing as before.
  node.reset();
  model.charge_step(32);
  const auto t = model.charge_step(32);
  const double serial = t.serial;
  const double parallel = t.total - t.serial;
  double flops = 0;
  for (int r = 0; r < node.cpu_count(); ++r) flops += node.cpu(r).equiv_flops().value();
  const double flops_per_step = flops / 2.0;  // two steps charged

  // Transposition volume per step: the full 3-D grid, both directions.
  const double grid_bytes = 8.0 * c.res.nlon * c.res.nlat * c.res.nlev *
                            c.dynamics_fields;

  print_banner(std::cout,
               "Ablation: CCM2 T170L18 across IXS-coupled nodes (32 CPUs each)");
  Table tbl({"Nodes", "CPUs", "Step (ms)", "IXS (ms)", "Gflops", "Efficiency"});
  double prev_gflops = 0;
  bool monotone = true;
  double eff16 = 0, g1 = 0;
  for (int nodes : {1, 2, 4, 8, 16}) {
    auto mcfg = sxs::MachineConfig::sx4_multinode(nodes);
    mcfg.clock_ns = cfg.clock_ns;
    sxs::Ixs ixs(mcfg);
    const double ixs_s =
        nodes == 1
            ? 0.0
            : 2.0 * ixs.all_to_all_seconds(nodes, Bytes(grid_bytes / nodes))
                      .value() +
                  8.0 * ixs.global_barrier_seconds(nodes).value();
    const double step = serial + parallel / nodes + ixs_s;
    const double g = flops_per_step / step / 1e9;
    if (nodes == 1) g1 = g;
    const double eff = g / (g1 * nodes);
    tbl.add_row({std::to_string(nodes), std::to_string(32 * nodes),
                 format_fixed(step * 1e3, 1), format_fixed(ixs_s * 1e3, 2),
                 format_fixed(g, 1), format_fixed(100 * eff, 0) + "%"});
    monotone = monotone && g >= prev_gflops;
    prev_gflops = g;
    if (nodes == 16) eff16 = eff;
    rep.metric("ablation_ixs.ccm2_gflops@nodes=" + std::to_string(nodes), g,
               "Gflops");
  }
  tbl.print(std::cout);

  rep.metric("ablation_ixs.efficiency@nodes=16", eff16);
  rep.expect_true("ablation_ixs.throughput_grows_with_nodes", monotone,
                  "IXS coupling adds throughput on the fixed-size problem");
  std::printf("\nthroughput grows with nodes: %s\n", monotone ? "yes" : "NO");
  std::printf("strong-scaling efficiency at 16 nodes: %.0f%% (the fixed-size\n"
              "problem is limited by the serial step section, not the IXS)\n",
              100 * eff16);
  rep.cost_cache_counters(static_cast<double>(node.cost_cache_hits()),
                          static_cast<double>(node.cost_cache_misses()));
  // Attribution covers the two measured T170 steps on the single node.
  bench::print_attribution(std::cout, node);
  bench::report_attribution(rep, "ablation_ixs", node);
  stream.finish(rep);
  return rep.finish(std::cout);
}
