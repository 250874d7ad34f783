// The hot paths allocate nothing: after one warm-up call, the model time
// steps, the charge paths, the cache simulator and the arena FFTs make no
// heap allocation on any thread, with the numerics inline (null pool) and
// on pools of 1, 2 and 4 host threads.
//
// This binary replaces the global operator new/delete with an atomic
// counter, so it must stay its own executable. The counter sees every
// translation unit at every call depth, including the pool's dispatch and
// its worker threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "ccm2/model.hpp"
#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "fft/real_fft.hpp"
#include "ocean/mom.hpp"
#include "ocean/pop.hpp"
#include "sxs/cache_sim.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace ncar;

/// Allocations made by the second of two calls to `fn`; the first call is
/// the warm-up that sizes any lazily grown workspace.
template <class F>
long allocations_after_warm_up(F&& fn) {
  fn();
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// The host threads of the pool under test; 0 is the null pool (the
/// Sequential policy, numerics inline on the caller).
class HotAlloc : public ::testing::TestWithParam<int> {
protected:
  HotAlloc() : node(sxs::MachineConfig::sx4_benchmarked()) {
    if (GetParam() == 0) {
      node.set_execution_policy(sxs::ExecutionPolicy::Sequential);
    } else {
      pool = std::make_unique<ThreadPool>(GetParam());
      node.set_execution_policy(sxs::ExecutionPolicy::Threaded);
      node.set_thread_pool(pool.get());
    }
  }

  std::unique_ptr<ThreadPool> pool;
  sxs::Node node;
};

TEST_P(HotAlloc, Ccm2Step) {
  ccm2::Ccm2 model(ccm2::Ccm2Config{}, node);
  EXPECT_EQ(allocations_after_warm_up([&] { model.step(4); }), 0);
}

TEST_P(HotAlloc, Ccm2ChargeStep) {
  const ccm2::Ccm2 model(ccm2::Ccm2Config{}, node);
  EXPECT_EQ(allocations_after_warm_up([&] { model.charge_step(4); }), 0);
}

TEST_P(HotAlloc, MomStep) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  EXPECT_EQ(allocations_after_warm_up([&] { mom.step(4); }), 0);
}

TEST_P(HotAlloc, MomChargeStep) {
  const ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  long step = 0;
  EXPECT_EQ(allocations_after_warm_up([&] { mom.charge_step(4, step++); }),
            0);
}

TEST_P(HotAlloc, PopStep) {
  ocean::Pop pop(ocean::PopConfig::two_degree(), node);
  EXPECT_EQ(allocations_after_warm_up([&] { pop.step(); }), 0);
}

TEST_P(HotAlloc, CpuCharges) {
  sxs::Cpu& cpu = node.cpu(0);
  EXPECT_EQ(allocations_after_warm_up([&] {
              cpu.charge_cycles(Cycles(1000.0), trace::Category::VectorAdd);
              cpu.charge_seconds(Seconds(1e-6), trace::Category::Scalar);
            }),
            0);
}

TEST_P(HotAlloc, CacheSimAccesses) {
  auto cache = sxs::CacheSim::dcache(node.config());
  EXPECT_EQ(allocations_after_warm_up([&] {
              cache.access_range(4096, 1 << 16);
              cache.access_stream(8192, 24, 4096);
            }),
            0);
}

TEST_P(HotAlloc, RealFftWithArena) {
  const long n = 256;
  const fft::Plan plan(n);
  Arena arena(fft::real_fft_arena_doubles(n));
  std::vector<double> in(static_cast<std::size_t>(n), 0.5);
  std::vector<double> back(in.size());
  std::vector<fft::cd> spectrum(
      static_cast<std::size_t>(fft::spectrum_size(n)));
  EXPECT_EQ(allocations_after_warm_up([&] {
              fft::real_forward(plan, in, spectrum, arena);
              fft::real_inverse(plan, spectrum, back, arena);
            }),
            0);
}

INSTANTIATE_TEST_SUITE_P(Pools, HotAlloc, ::testing::Values(0, 1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("null_pool")
                                      : "pool" + std::to_string(info.param);
                         });

}  // namespace
