// Ablation studies over the SX-4 model's design parameters (DESIGN.md
// section 5): what each architectural feature buys, measured with the
// benchmark kernels themselves.
//
//   banks  — 1024 vs 256 vs 64 memory banks, on XPOSE's worst stride
//   VL     — 256 vs 128 vs 64 element vector registers, on VFFT
//   clock  — 9.2 ns (benchmarked) vs 8.0 ns (product): the paper predicts
//            ~15% improvement from the faster clock plus tuning
//   sync   — macrotask barrier cost, on CCM2 scaling at 32 CPUs

#include <cstdio>
#include <iostream>

#include "ccm2/model.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "fft/style_bench.hpp"
#include "harness/reporter.hpp"
#include "harness/trace_report.hpp"
#include "kernels/memory_kernels.hpp"
#include "radabs/radabs.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/category.hpp"

using namespace ncar;

namespace {

double xpose_bw(sxs::MachineConfig cfg) {
  cfg.cpus_per_node = 1;
  sxs::Node node(cfg);
  return kernels::run_xpose(node.cpu(0), 512, 4, 3).mb_per_s;
}

double vfft_mflops(sxs::MachineConfig cfg) {
  cfg.cpus_per_node = 1;
  sxs::Node node(cfg);
  return fft::run_vfft(node.cpu(0), 256, 500, 3).mflops;
}

double ccm2_gflops(const sxs::MachineConfig& cfg) {
  sxs::Node node(cfg);
  ccm2::Ccm2Config c;
  c.res = ccm2::t106l18();
  c.active_levels = 1;
  ccm2::Ccm2 model(c, node);
  // Gflops depend only on the charge sequence (see Ccm2::charge_step), so
  // the ablation replays charges instead of integrating the dycore.
  return model.charge_sustained_equiv_gflops(32, 1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep("ablation_arch", argc, argv);

  // --- banks --------------------------------------------------------------
  print_banner(std::cout, "Ablation: memory bank count (XPOSE N=512)");
  Table tb({"Banks", "XPOSE MB/s"});
  double prev = 0;
  bool banks_ok = true;
  for (int banks : {64, 256, 1024}) {
    auto cfg = sxs::MachineConfig::sx4_benchmarked();
    cfg.memory_banks = banks;
    const double bw = xpose_bw(cfg);
    tb.add_row({std::to_string(banks), format_fixed(bw, 0)});
    banks_ok = banks_ok && bw >= prev;
    prev = bw;
    rep.metric("ablation.xpose_mb_per_s@banks=" + std::to_string(banks), bw,
               "MB/s");
  }
  tb.print(std::cout);
  std::printf("more banks monotonically help power-of-two strides: %s\n",
              banks_ok ? "yes" : "NO");
  rep.expect_true("ablation.banks_monotone", banks_ok,
                  "more banks help power-of-two strides (DESIGN.md section 5)");

  // --- vector length -------------------------------------------------------
  print_banner(std::cout, "Ablation: vector register length (VFFT N=256)");
  Table tv({"VL", "VFFT Mflops"});
  prev = 0;
  bool vl_ok = true;
  for (int vl : {64, 128, 256}) {
    auto cfg = sxs::MachineConfig::sx4_benchmarked();
    cfg.vector_length = vl;
    const double mf = vfft_mflops(cfg);
    tv.add_row({std::to_string(vl), format_fixed(mf, 1)});
    vl_ok = vl_ok && mf >= prev * 0.999;
    prev = mf;
    rep.metric("ablation.vfft_mflops@vl=" + std::to_string(vl), mf, "Mflops");
  }
  tv.print(std::cout);
  rep.expect_true("ablation.vector_length_monotone", vl_ok,
                  "longer vector registers help VFFT at M=500");

  // --- clock ---------------------------------------------------------------
  print_banner(std::cout, "Ablation: 9.2 ns vs 8.0 ns clock (RADABS)");
  machines::Comparator benchmarked(machines::Comparator::nec_sx4_single());
  const double r92 = radabs::run_radabs_standard(benchmarked).equiv_mflops;
  auto product = machines::Comparator::nec_sx4_single();
  product.cfg.clock_ns = 8.0;
  machines::Comparator prod(product);
  const double r80 = radabs::run_radabs_standard(prod).equiv_mflops;
  Table tc({"Clock", "RADABS equiv Mflops"});
  tc.add_row({"9.2 ns", format_fixed(r92, 1)});
  tc.add_row({"8.0 ns", format_fixed(r80, 1)});
  tc.print(std::cout);
  const double gain = r80 / r92 - 1.0;
  std::printf("clock gain: %.1f%% (paper predicts ~15%% with tuning; the\n"
              "pure clock ratio is %.1f%%)\n",
              100 * gain, 100 * (9.2 / 8.0 - 1.0));
  rep.expect("ablation.clock_gain_fraction", gain,
             bench::Band::range(0.10, 0.18),
             "paper: an additional 15% performance improvement at 8.0 ns");

  // --- synchronisation -----------------------------------------------------
  print_banner(std::cout, "Ablation: barrier cost (CCM2 T106, 32 CPUs)");
  Table ts({"Barrier base clocks", "CCM2 Gflops"});
  double g_cheap = 0, g_dear = 0;
  for (double base : {100.0, 1500.0, 15000.0}) {
    auto cfg = sxs::MachineConfig::sx4_benchmarked();
    cfg.barrier_base_clocks = base;
    const double g = ccm2_gflops(cfg);
    ts.add_row({format_fixed(base, 0), format_fixed(g, 2)});
    if (base == 100.0) g_cheap = g;
    if (base == 15000.0) g_dear = g;
    rep.metric("ablation.ccm2_gflops@barrier_clocks=" +
                   std::to_string(long(base)),
               g, "Gflops");
  }
  ts.print(std::cout);
  std::printf("cheap barriers beat expensive ones: %s\n",
              g_cheap > g_dear ? "yes" : "NO");
  rep.expect_true("ablation.cheap_barriers_beat_expensive", g_cheap > g_dear,
                  "inflating macrotask barrier cost lowers 32-CPU CCM2 rate");

  // Attribution of the benchmarked configuration (CCM2 T106, 32 CPUs) — an
  // extra charge replay, run only when tracing is on so the default-mode
  // wall time and result JSON are untouched.
  if (trace::mode() != trace::Mode::Off) {
    const auto cfg = sxs::MachineConfig::sx4_benchmarked();
    sxs::Node node(cfg);
    // Streaming trace sink (SX4NCAR_TRACE=stream); inactive in other modes.
    bench::StreamTrace stream(rep.aux_path("trace.sxt"), node);
    ccm2::Ccm2Config c;
    c.res = ccm2::t106l18();
    c.active_levels = 1;
    ccm2::Ccm2 model(c, node);
    model.charge_sustained_equiv_gflops(32, 1);
    bench::print_attribution(std::cout, node);
    bench::report_attribution(rep, "ablation", node);
    stream.finish(rep);
  }

  return rep.finish(std::cout);
}
