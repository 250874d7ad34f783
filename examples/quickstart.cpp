// Quickstart: build an SX-4 model, charge a simple DAXPY-style loop against
// one CPU, and run the same loop as a 32-CPU macrotasked parallel region.
//
// This demonstrates the two core ideas of the library:
//   1. kernels do real numerics on host arrays;
//   2. timing comes from the SX-4 performance model, in simulated seconds.

#include <cstdio>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main() try {
  using namespace ncar;
  std::printf("host execution: %s\n\n", sxs::host_execution_summary().c_str());

  // The machine the paper benchmarked: SX-4/32 with the 9.2 ns clock.
  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);

  std::printf("machine: %s\n", cfg.name.c_str());
  std::printf("peak per CPU: %.2f Gflops\n",
              to_gflops(cfg.peak_flops_per_cpu()));

  // y = a*x + y over 10 million elements — real numerics on the host.
  const long n = 10'000'000;
  std::vector<double> x(n, 1.5), y(n, 0.25);
  const double a = 3.0;

  auto daxpy = [&](long lo, long hi, sxs::Cpu& cpu) {
    for (long i = lo; i < hi; ++i) y[i] += a * x[i];
    sxs::VectorOp op;
    op.n = hi - lo;
    op.flops_per_elem = 2;   // multiply + add, chained
    op.load_words = 2;       // x and y
    op.store_words = 1;      // y
    op.pipe_groups = 2;
    cpu.vec(op);
  };

  // Single CPU.
  double t1 = node.serial([&](sxs::Cpu& cpu) { daxpy(0, n, cpu); });
  std::printf("1 CPU : %8.3f ms simulated, %7.1f Mflops\n", t1 * 1e3,
              to_mflops(2.0 * n / t1));

  // All 32 CPUs, block-partitioned, one barrier at the end.
  const int p = cfg.cpus_per_node;
  double tp = node.parallel(p, [&](int rank, sxs::Cpu& cpu) {
    const long lo = n * rank / p;
    const long hi = n * (rank + 1) / p;
    daxpy(lo, hi, cpu);
  });
  std::printf("%d CPU: %8.3f ms simulated, %7.1f Mflops (speedup %.1fx)\n", p,
              tp * 1e3, to_mflops(2.0 * n / tp), t1 / tp);

  // Sanity: the numerics really ran (twice: serial then parallel pass).
  std::printf("y[0] = %.4f (expect %.4f)\n", y[0], 0.25 + 2 * a * 1.5);
  return 0;
} catch (const ncar::config_error& e) {
  // A bad SX4NCAR_* knob stops the run naming it, as in the bench mains.
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 2;
}
