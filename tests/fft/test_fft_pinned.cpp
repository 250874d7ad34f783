// FFT outputs pinned bit for bit: FNV-1a of Plan::forward/inverse at every
// paper-family length up to 1024 (2^n, 3*2^n, 5*2^n, section 4.3) and of
// real_forward/real_inverse at every CCM2 Table 4 longitude count, on fixed
// seeded inputs, checked under every backend this host can run. The
// hashes were recorded from the recursive decimation-in-time plan that the
// flat stage loop replaced; agreement with naive_dft to a tolerance would
// not catch a reordered butterfly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ccm2/resolution.hpp"
#include "common/rng.hpp"
#include "fft/complex_fft.hpp"
#include "fft/real_fft.hpp"
#include "simd/simd.hpp"
#include "support/fnv1a.hpp"

namespace {

using namespace ncar;
using fft::cd;
using simd::Backend;

struct Pin {
  long n;
  std::uint64_t forward;
  std::uint64_t inverse;
};

std::vector<cd> seeded_complex(long n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cd> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

std::vector<double> seeded_reals(long n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  return x;
}

/// Run `body` once per backend the host supports, restoring the active
/// backend afterwards.
template <typename Body>
void for_each_backend(Body body) {
  const Backend before = simd::active();
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    simd::set_backend(b);
    body(b);
  }
  simd::set_backend(before);
}

// Lengths 2^0..2^10, 3*2^0..3*2^8 and 5*2^0..5*2^7.
const Pin kComplexPins[] = {
    {1, 0xb897f29368afc669ull, 0xb897f29368afc669ull},
    {2, 0xa06d7e33acbdd466ull, 0xa06d7e33acbdd466ull},
    {3, 0x2b63c95792355dceull, 0x51543ebc38e38f0aull},
    {4, 0x7af962f23368f40dull, 0xbf928c2586795bdaull},
    {5, 0x32645a3a0d9b2231ull, 0xd0591343edd2dfb9ull},
    {6, 0x272622c03abf8937ull, 0xe502c727ac4d63bbull},
    {8, 0xd25ea40012269325ull, 0x4cd4c3a48e661733ull},
    {10, 0x5ff9764bc8dadbb4ull, 0x24e516c67cd23b15ull},
    {12, 0xdf1eb8f1ae5e6d9full, 0xcf7bbee3a8b7ca11ull},
    {16, 0x18f707801dd8280bull, 0x36c7e11740f15cb4ull},
    {20, 0x547eb7081b29695ull, 0xa05ab26dc0550f08ull},
    {24, 0xc29ffcf2c9f0c676ull, 0xb521d795f047afe6ull},
    {32, 0x11d510a74092c1d7ull, 0x34d92441e95adcc5ull},
    {40, 0x69ede9d08170eeeaull, 0x82c215286f9882daull},
    {48, 0xcb680de267bf956bull, 0x2516a306710578efull},
    {64, 0x1cec735836fb2765ull, 0x1f6d76434dcc27c7ull},
    {80, 0x15ab4c9acacff02eull, 0xe88cda8ab72589e9ull},
    {96, 0x6364fa98ddfb21a6ull, 0x62bdf5febf2e4bfaull},
    {128, 0xa051b924726da253ull, 0xbe52a5909452681bull},
    {160, 0x6a84b53046231792ull, 0x418d2b6209df1fa6ull},
    {192, 0xb51ad2b112a5bf52ull, 0x84e8fdc40e1fdb29ull},
    {256, 0x33233e807c35719ull, 0x50984eb6b40a5bfdull},
    {320, 0x130aa31807c5bf9ull, 0x7e78b819dfdfcc2full},
    {384, 0x1650cac332eeeb4dull, 0x1702d9dcfc6053b9ull},
    {512, 0xa83ccaf71247deddull, 0xec7ac55533ec0308ull},
    {640, 0xc0575278e10f097cull, 0xdf76796eefb42033ull},
    {768, 0x92a9ddd287ddfdeull, 0xf9ef246833c205feull},
    {1024, 0xe45e25806b3ad708ull, 0x4aab2b09c08a01a4ull},
};

const Pin kRealPins[] = {
    {128, 0xc42ea72ba072d7e8ull, 0x7a9c7c6f9269b7ecull},
    {192, 0x2abe1c11615ada96ull, 0xb97d331c4c7ac571ull},
    {256, 0x58bbd7e09daed8c8ull, 0x1f3a5a242ff21a09ull},
    {320, 0xb555e5f49258f935ull, 0x17ad7b12912f6200ull},
    {512, 0x41431721d562d333ull, 0x17947d99ff5bbdf2ull},
};

TEST(FftPinned, PaperFamilyLengthsCoverEveryPin) {
  std::vector<long> want;
  for (long base : {1L, 3L, 5L}) {
    for (long n = base; n <= 1024; n *= 2) want.push_back(n);
  }
  std::vector<long> got;
  for (const Pin& p : kComplexPins) got.push_back(p.n);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);

  std::vector<long> nlons;
  for (const auto& r : ccm2::table4()) nlons.push_back(r.nlon);
  std::vector<long> real_got;
  for (const Pin& p : kRealPins) real_got.push_back(p.n);
  EXPECT_EQ(real_got, nlons);
}

TEST(FftPinned, ComplexPlanOutputsBitIdenticalOnEveryBackend) {
  for_each_backend([](Backend b) {
    for (const Pin& p : kComplexPins) {
      const fft::Plan plan(p.n);
      const auto n = static_cast<std::uint64_t>(p.n);
      const auto x = seeded_complex(p.n, 0x5eed0000ull + n);
      std::vector<cd> out(x.size());
      plan.forward(x, out);
      const std::uint64_t f = test::fnv1a(out);
      plan.inverse(x, out);
      const std::uint64_t i = test::fnv1a(out);
      EXPECT_EQ(f, p.forward) << simd::to_string(b) << " n=" << p.n
                              << " forward 0x" << std::hex << f;
      EXPECT_EQ(i, p.inverse) << simd::to_string(b) << " n=" << p.n
                              << " inverse 0x" << std::hex << i;
    }
  });
}

TEST(FftPinned, RealTransformsBitIdenticalOnEveryBackend) {
  for_each_backend([](Backend b) {
    for (const Pin& p : kRealPins) {
      const fft::Plan plan(p.n);
      const long nspec = fft::spectrum_size(p.n);
      const auto n = static_cast<std::uint64_t>(p.n);
      const auto reals = seeded_reals(p.n, 0x7ea10000ull + n);
      const auto spec = seeded_complex(nspec, 0x5bec0000ull + n);
      std::vector<cd> fwd(static_cast<std::size_t>(nspec));
      std::vector<double> inv(static_cast<std::size_t>(p.n));
      fft::real_forward(plan, reals, fwd);
      fft::real_inverse(plan, spec, inv);
      const std::uint64_t f = test::fnv1a(fwd);
      const std::uint64_t i = test::fnv1a(inv);
      EXPECT_EQ(f, p.forward) << simd::to_string(b) << " nlon=" << p.n
                              << " real_forward 0x" << std::hex << f;
      EXPECT_EQ(i, p.inverse) << simd::to_string(b) << " nlon=" << p.n
                              << " real_inverse 0x" << std::hex << i;
    }
  });
}

}  // namespace
