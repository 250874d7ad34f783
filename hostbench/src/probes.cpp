// Per-layer probes that belong to no single workload: the SIMD kernels
// under every supported backend, op pricing on a cache hit vs a miss, and
// the thread-pool speed-up curve of run_sweep.

#include "probes.hpp"

#include <complex>
#include <vector>

#include "common/thread_pool.hpp"
#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "simd/simd.hpp"
#include "sxs/cpu.hpp"
#include "sxs/machine_config.hpp"

namespace hostbench {

namespace {

using ncar::simd::Backend;
using cd = std::complex<double>;

/// Nanoseconds per element of `kernel` called `calls` times on n elements.
template <class F>
double ns_per_element(long n, int calls, F&& kernel) {
  const double s = median_time(7, [&] {
    for (int c = 0; c < calls; ++c) kernel();
  });
  return 1e9 * s / (static_cast<double>(n) * calls);
}

void simd_kernels(Metrics& out) {
  constexpr long n = 4096;
  constexpr int calls = 64;
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> a(un), b(un), c(un), d(un), e(un), f(un), g(un),
      dst(un), scratch(4 * un);
  for (std::size_t i = 0; i < un; ++i) {
    const double x = static_cast<double>(i);
    a[i] = 1.0 + 1e-4 * x;
    b[i] = 250.0 + 0.01 * x;
    c[i] = 240.0 + 0.02 * x;
    d[i] = 0.5 - 1e-5 * x;
    e[i] = 0.25 + 1e-5 * x;
    f[i] = 0.1 * (x - 2000.0) * 1e-3;
    g[i] = -0.2 * (x - 1000.0) * 1e-3;
  }
  std::vector<cd> s(un), tw(un / 2), fftbuf(un);
  for (std::size_t i = 0; i < un; ++i) s[i] = cd(a[i], d[i]);
  for (std::size_t i = 0; i < un / 2; ++i) {
    tw[i] = std::polar(1.0, -6.283185307179586 * static_cast<double>(i) /
                                static_cast<double>(n));
  }

  const Backend initial = ncar::simd::active();
  for (int bi = 0; bi < ncar::simd::kBackendCount; ++bi) {
    const auto backend = static_cast<Backend>(bi);
    if (!ncar::simd::supported(backend)) continue;
    ncar::simd::set_backend(backend);
    const ncar::simd::KernelTable& k = ncar::simd::table();
    const std::string suffix = std::string("_ns.") +
                               ncar::simd::to_string(backend);
    // fft_combine2 grows its data by at most 2x per call; restart from the
    // same input every 16 calls so values stay finite.
    int call = 0;
    out.add("simd.fft_combine2" + suffix, ns_per_element(n, calls, [&] {
              if (call++ % 16 == 0) fftbuf = s;
              k.fft_combine2(fftbuf.data(), n / 2, tw.data());
            }),
            "ns");
    cd sp, sd;
    out.add("simd.dot2_cd_r" + suffix, ns_per_element(n, calls, [&] {
              k.dot2_cd_r(s.data(), a.data(), d.data(), n, &sp, &sd);
            }),
            "ns");
    out.add("simd.radabs_pair_d" + suffix, ns_per_element(n, calls, [&] {
              k.radabs_pair_d(e.data(), b.data(), c.data(), 1.2, dst.data(),
                              scratch.data(), n);
            }),
            "ns");
    out.add("simd.mom_stencil_d" + suffix, ns_per_element(n, calls, [&] {
              k.mom_stencil_d(a.data(), b.data(), c.data(), d.data(),
                              e.data(), f.data(), g.data(), 0.3, 0.01,
                              dst.data(), n);
            }),
            "ns");
  }
  ncar::simd::set_backend(initial);
  out.add("simd.active", static_cast<double>(initial), "enum");
}

void vec_pricing(Metrics& out) {
  const ncar::sxs::MachineConfig cfg =
      ncar::sxs::MachineConfig::sx4_benchmarked();
  ncar::sxs::VectorOp op;
  op.n = 4096;
  op.flops_per_elem = 2;
  op.load_words = 2;
  op.store_words = 1;
  constexpr int kOps = 20000;
  {
    ncar::sxs::Cpu cpu(cfg);
    cpu.vec(op);
    out.add("sxs.vec_hit_ns", 1e9 / kOps * median_time(7, [&] {
                                for (int i = 0; i < kOps; ++i) cpu.vec(op);
                              }),
            "ns");
  }
  {
    // Every call carries a vector length the cache has not seen yet.
    ncar::sxs::Cpu cpu(cfg);
    long next = 1;
    out.add("sxs.vec_miss_ns", 1e9 / kOps * median_time(7, [&] {
                                 for (int i = 0; i < kOps; ++i) {
                                   op.n = next++;
                                   cpu.vec(op);
                                 }
                               }),
            "ns");
  }
}

}  // namespace

void thread_pool_speedup(const Options& opt, Metrics& out) {
  // A fixed (unseeded) radabs grid, so the curve compares like with like.
  const ncar::machines::Grid grid(
      ncar::machines::builtin_catalog().at("NEC SX-4/1"),
      {{"pipes_per_group", {1, 2, 4, 8}},
       {"vector_length", {64, 128, 256, 512}},
       {"port_bytes_per_clock", {16, 32, 64, 128}},
       {"memory_banks", opt.size == Size::Tiny
                            ? std::vector<double>{512}
                            : std::vector<double>{256, 512, 1024, 2048}},
       {"clock_ns", {9.2}}});
  double t1 = 0;
  for (int k = 1; k <= opt.threads; ++k) {
    ncar::ThreadPool pool(k);
    ncar::machines::SweepOptions so;
    so.kernel = "radabs";
    so.policy = ncar::sxs::ExecutionPolicy::Threaded;
    so.pool = &pool;
    const double t = median_time(3, [&] {
      (void)ncar::machines::run_sweep(grid, so);
    });
    if (k == 1) t1 = t;
    out.add("common.thread_pool.speedup.t" + std::to_string(k), t1 / t,
            "ratio");
  }
}

void layer_probes(Metrics& out) {
  simd_kernels(out);
  vec_pricing(out);
}

}  // namespace hostbench
