// The determinism contract of the SIMD layer (DESIGN.md section 12): every
// backend is bit-identical to the scalar reference for every kernel, at
// every size — including the remainder tails that fall back to scalar code
// inside the vector kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fft/complex_fft.hpp"
#include "machines/comparator.hpp"
#include "radabs/radabs.hpp"
#include "simd/simd.hpp"

namespace {

using ncar::Rng;
using ncar::simd::Backend;
using cd = ncar::simd::cd;
namespace simd = ncar::simd;

// Sizes chosen to hit the empty case, pure-tail cases below every lane
// width (2, 4, 8), exact multiples, and off-by-one remainders.
const long kSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 101};

std::vector<double> random_vec(Rng& rng, long n, double lo = -1.0,
                               double hi = 1.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = lo + (hi - lo) * rng.next_double();
  return v;
}

std::vector<cd> random_cvec(Rng& rng, long n) {
  std::vector<cd> v(static_cast<std::size_t>(n));
  for (cd& z : v) {
    z = cd(2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0);
  }
  return v;
}

template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       Backend backend, long n, const char* kernel) {
  ASSERT_EQ(a.size(), b.size());
  // An empty vector's data() may be null, and memcmp on null is undefined
  // even for a zero length.
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << kernel << " diverges from scalar on " << simd::to_string(backend)
      << " at n=" << n;
}

// Runs `check(scalar_table, backend_table, backend, n)` for every supported
// non-scalar backend and every probe size.
template <typename Check>
void for_each_backend_and_size(Check check) {
  const simd::KernelTable& ref = simd::scalar_table();
  for (int i = 1; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    const simd::KernelTable& kt = simd::table_for(b);
    for (long n : kSizes) check(ref, kt, b, n);
  }
}

TEST(SimdBitIdentity, StreamingKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(7);
    const auto src = random_vec(rng, n * 3 + 1, -10.0, 10.0);
    std::vector<long> idx(static_cast<std::size_t>(n));
    for (long& k : idx) {
      k = static_cast<long>(rng.next_double() * static_cast<double>(n * 3));
    }
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> c = a;
    ref.copy_d(src.data(), a.data(), n);
    kt.copy_d(src.data(), c.data(), n);
    expect_bits_equal(a, c, b, n, "copy_d");

    ref.gather_d(src.data(), idx.data(), a.data(), n);
    kt.gather_d(src.data(), idx.data(), c.data(), n);
    expect_bits_equal(a, c, b, n, "gather_d");

    ref.strided_copy_d(src.data(), 3, a.data(), n);
    kt.strided_copy_d(src.data(), 3, c.data(), n);
    expect_bits_equal(a, c, b, n, "strided_copy_d");
  });
}

TEST(SimdBitIdentity, ElementwiseKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(11);
    const auto x = random_vec(rng, n, -5.0, 5.0);
    const auto base = random_vec(rng, n, -5.0, 5.0);
    std::vector<double> a = base;
    std::vector<double> c = base;
    ref.add_d(a.data(), x.data(), n);
    kt.add_d(c.data(), x.data(), n);
    expect_bits_equal(a, c, b, n, "add_d");

    ref.scale_d(x.data(), 1.0 / 3.0, a.data(), n);
    kt.scale_d(x.data(), 1.0 / 3.0, c.data(), n);
    expect_bits_equal(a, c, b, n, "scale_d");

    ref.scale2_d(x.data(), 0.1, 7.3, a.data(), n);
    kt.scale2_d(x.data(), 0.1, 7.3, c.data(), n);
    expect_bits_equal(a, c, b, n, "scale2_d");
  });
}

TEST(SimdBitIdentity, SelectMatchesScalarIncludingNanMasks) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(13);
    auto mask = random_vec(rng, n, 0.0, 1.0);
    for (long i = 0; i < n; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      if (i % 3 == 0) mask[s] = 0.0;
      if (i % 7 == 0) mask[s] = std::numeric_limits<double>::quiet_NaN();
      if (i % 5 == 0) mask[s] = -0.0;  // signed zero selects b, like != 0
    }
    const auto x = random_vec(rng, n);
    const auto y = random_vec(rng, n);
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> c = a;
    ref.select_d(mask.data(), x.data(), y.data(), a.data(), n);
    kt.select_d(mask.data(), x.data(), y.data(), c.data(), n);
    expect_bits_equal(a, c, b, n, "select_d");
  });
}

TEST(SimdBitIdentity, RadabsPairKernel) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(17);
    const auto w = random_vec(rng, n, 1e-4, 2.0);
    const auto t1 = random_vec(rng, n, 200.0, 310.0);
    const auto t2 = random_vec(rng, n, 200.0, 310.0);
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> c = a;
    std::vector<double> scratch(static_cast<std::size_t>(4 * n), 0.0);
    ref.radabs_pair_d(w.data(), t1.data(), t2.data(), 0.73, a.data(),
                      scratch.data(), n);
    kt.radabs_pair_d(w.data(), t1.data(), t2.data(), 0.73, c.data(),
                     scratch.data(), n);
    expect_bits_equal(a, c, b, n, "radabs_pair_d");
  });
}

TEST(SimdBitIdentity, OceanKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(19);
    const auto f = random_vec(rng, n);
    const auto aip = random_vec(rng, n);
    const auto aim = random_vec(rng, n);
    const auto ajp = random_vec(rng, n);
    const auto ajm = random_vec(rng, n);
    const auto uu = random_vec(rng, n);
    const auto vv = random_vec(rng, n);
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> c = a;
    ref.mom_stencil_d(f.data(), aip.data(), aim.data(), ajp.data(),
                      ajm.data(), uu.data(), vv.data(), 0.3, 0.01, a.data(),
                      n);
    kt.mom_stencil_d(f.data(), aip.data(), aim.data(), ajp.data(), ajm.data(),
                     uu.data(), vv.data(), 0.3, 0.01, c.data(), n);
    expect_bits_equal(a, c, b, n, "mom_stencil_d");

    auto up_a = random_vec(rng, n, 270.0, 290.0);
    auto lo_a = random_vec(rng, n, 270.0, 290.0);
    auto up_c = up_a;
    auto lo_c = lo_a;
    ref.mix_unstable_d(up_a.data(), lo_a.data(), n);
    kt.mix_unstable_d(up_c.data(), lo_c.data(), n);
    expect_bits_equal(up_a, up_c, b, n, "mix_unstable_d upper");
    expect_bits_equal(lo_a, lo_c, b, n, "mix_unstable_d lower");

    auto eta_a = random_vec(rng, n);
    auto eta_c = eta_a;
    ref.pop_eta_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.4,
                  eta_a.data(), n);
    kt.pop_eta_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.4,
                 eta_c.data(), n);
    expect_bits_equal(eta_a, eta_c, b, n, "pop_eta_d");

    auto u_a = random_vec(rng, n);
    auto v_a = random_vec(rng, n);
    auto u_c = u_a;
    auto v_c = v_a;
    ref.pop_momentum_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.02,
                       9.8, 1e-4, 1e-3, u_a.data(), v_a.data(), n);
    kt.pop_momentum_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.02,
                      9.8, 1e-4, 1e-3, u_c.data(), v_c.data(), n);
    expect_bits_equal(u_a, u_c, b, n, "pop_momentum_d u");
    expect_bits_equal(v_a, v_c, b, n, "pop_momentum_d v");

    auto t_a = random_vec(rng, n);
    auto t_c = t_a;
    ref.pop_tracer_d(f.data(), aip.data(), aim.data(), ajp.data(), uu.data(),
                     vv.data(), -0.25, 0.05, t_a.data(), n);
    kt.pop_tracer_d(f.data(), aip.data(), aim.data(), ajp.data(), uu.data(),
                    vv.data(), -0.25, 0.05, t_c.data(), n);
    expect_bits_equal(t_a, t_c, b, n, "pop_tracer_d");
  });
}

TEST(SimdBitIdentity, FftCombineKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long m) {
    if (m == 0) return;  // combine passes require at least one butterfly
    Rng rng(23);
    for (const int f : {2, 3, 5}) {
      const auto data = random_cvec(rng, f * m);
      const auto tw = random_cvec(rng, f * m);
      auto a = data;
      auto c = data;
      for (const double sign : {-1.0, 1.0}) {
        a = data;
        c = data;
        if (f == 2) {
          ref.fft_combine2(a.data(), m, tw.data());
          kt.fft_combine2(c.data(), m, tw.data());
        } else if (f == 3) {
          ref.fft_combine3(a.data(), m, tw.data(), sign);
          kt.fft_combine3(c.data(), m, tw.data(), sign);
        } else {
          ref.fft_combine5(a.data(), m, tw.data(), sign);
          kt.fft_combine5(c.data(), m, tw.data(), sign);
        }
        expect_bits_equal(a, c, b, m, "fft_combine");
      }
    }
  });
}

TEST(SimdBitIdentity, ComplexAccumulationKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(29);
    const auto s = random_cvec(rng, n);
    const auto p = random_vec(rng, n);
    const auto d = random_vec(rng, n);
    auto acc_a = random_cvec(rng, n);
    auto acc_c = acc_a;
    const cd g(0.37, -1.21);
    ref.axpy_cd_r(acc_a.data(), g, p.data(), n);
    kt.axpy_cd_r(acc_c.data(), g, p.data(), n);
    expect_bits_equal(acc_a, acc_c, b, n, "axpy_cd_r");

    const cd dot_a = ref.dot_cd_r(s.data(), p.data(), n);
    const cd dot_c = kt.dot_cd_r(s.data(), p.data(), n);
    EXPECT_EQ(std::memcmp(&dot_a, &dot_c, sizeof(cd)), 0)
        << "dot_cd_r diverges on " << simd::to_string(b) << " at n=" << n;

    cd pa, da, pc, dc;
    ref.dot2_cd_r(s.data(), p.data(), d.data(), n, &pa, &da);
    kt.dot2_cd_r(s.data(), p.data(), d.data(), n, &pc, &dc);
    EXPECT_EQ(std::memcmp(&pa, &pc, sizeof(cd)), 0)
        << "dot2_cd_r (p) diverges on " << simd::to_string(b) << " n=" << n;
    EXPECT_EQ(std::memcmp(&da, &dc, sizeof(cd)), 0)
        << "dot2_cd_r (d) diverges on " << simd::to_string(b) << " n=" << n;
  });
}

// End-to-end: a full mixed-radix FFT and the RADABS kernel produce
// bit-identical results under every forced backend.
class ForcedBackend {
public:
  explicit ForcedBackend(Backend b) : before_(simd::active()) {
    simd::set_backend(b);
  }
  ~ForcedBackend() { simd::set_backend(before_); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;

private:
  Backend before_;
};

TEST(SimdBitIdentity, FullFftMatchesScalarUnderEveryBackend) {
  const long n = 120;  // 2^3 * 3 * 5 exercises all three radices
  Rng rng(31);
  std::vector<cd> in(static_cast<std::size_t>(n));
  for (cd& z : in) {
    z = cd(2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0);
  }
  const ncar::fft::Plan plan(n);
  std::vector<cd> fwd_ref(static_cast<std::size_t>(n));
  std::vector<cd> inv_ref(static_cast<std::size_t>(n));
  {
    ForcedBackend force(Backend::Scalar);
    plan.forward(in, fwd_ref);
    plan.inverse(fwd_ref, inv_ref);
  }
  for (int i = 1; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    ForcedBackend force(b);
    std::vector<cd> fwd(static_cast<std::size_t>(n));
    std::vector<cd> inv(static_cast<std::size_t>(n));
    plan.forward(in, fwd);
    plan.inverse(fwd, inv);
    expect_bits_equal(fwd_ref, fwd, b, n, "Plan::forward");
    expect_bits_equal(inv_ref, inv, b, n, "Plan::inverse");
  }
}

TEST(SimdBitIdentity, RadabsChecksumMatchesScalarUnderEveryBackend) {
  const auto field = ncar::radabs::make_test_atmosphere(101, 13);
  double ref_checksum = 0.0;
  {
    ForcedBackend force(Backend::Scalar);
    ncar::machines::Comparator sx4(
        ncar::machines::Comparator::nec_sx4_single());
    ref_checksum = ncar::radabs::run_radabs(sx4, field).checksum;
  }
  for (int i = 1; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    ForcedBackend force(b);
    ncar::machines::Comparator sx4(
        ncar::machines::Comparator::nec_sx4_single());
    const double checksum = ncar::radabs::run_radabs(sx4, field).checksum;
    EXPECT_EQ(checksum, ref_checksum) << simd::to_string(b);
  }
}

}  // namespace
