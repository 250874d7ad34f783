// Backend probing, SX4NCAR_SIMD parsing, and forcing semantics.

#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace {

using ncar::simd::Backend;
namespace simd = ncar::simd;

// Restores the active backend on scope exit so forcing tests do not leak
// into the rest of the suite.
class BackendGuard {
public:
  BackendGuard() : before_(simd::active()) {}
  ~BackendGuard() { simd::set_backend(before_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

private:
  Backend before_;
};

TEST(SimdDispatch, NamesRoundTrip) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    Backend back = Backend::Scalar;
    bool is_auto = true;
    ASSERT_TRUE(simd::backend_from_string(simd::to_string(b), back, is_auto));
    EXPECT_EQ(back, b) << simd::to_string(b);
    EXPECT_FALSE(is_auto);
  }
}

TEST(SimdDispatch, AutoSelectsBestSupported) {
  Backend out = Backend::Scalar;
  bool is_auto = false;
  ASSERT_TRUE(simd::backend_from_string("auto", out, is_auto));
  EXPECT_TRUE(is_auto);
  EXPECT_EQ(out, simd::best_supported());
}

TEST(SimdDispatch, UnknownNamesAreRejected) {
  Backend out = Backend::Scalar;
  bool is_auto = false;
  EXPECT_FALSE(simd::backend_from_string("neon", out, is_auto));
  EXPECT_FALSE(simd::backend_from_string("", out, is_auto));
  EXPECT_FALSE(simd::backend_from_string(nullptr, out, is_auto));
}

TEST(SimdDispatch, EnvParseFallsBackToBestSupported) {
  EXPECT_EQ(simd::backend_from_env(nullptr), simd::best_supported());
  EXPECT_EQ(simd::backend_from_env(""), simd::best_supported());
  EXPECT_EQ(simd::backend_from_env("auto"), simd::best_supported());
  EXPECT_EQ(simd::backend_from_env("scalar"), Backend::Scalar);
  // A known backend the host cannot run clamps instead of failing.
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    EXPECT_EQ(simd::backend_from_env(simd::to_string(b)),
              simd::supported(b) ? b : simd::best_supported())
        << simd::to_string(b);
  }
}

TEST(SimdDispatch, EnvParseRejectsUnknownValues) {
  for (const char* bad : {"bogus", "neon", "avx3", "AVX2", "avx2 "}) {
    try {
      simd::backend_from_env(bad);
      ADD_FAILURE() << "SX4NCAR_SIMD=" << bad << " was accepted";
    } catch (const ncar::config_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("SX4NCAR_SIMD=") + bad),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("scalar, sse42, avx2, avx512 or auto"),
                std::string::npos)
          << what;
    }
  }
}

TEST(SimdDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::supported(Backend::Scalar));
  EXPECT_TRUE(simd::supported(simd::best_supported()));
}

TEST(SimdDispatch, ForcingScalarTakesEffectAndRestores) {
  BackendGuard guard;
  EXPECT_EQ(simd::set_backend(Backend::Scalar), Backend::Scalar);
  EXPECT_EQ(simd::active(), Backend::Scalar);
  // The active table is exactly the scalar reference table.
  EXPECT_EQ(&simd::table(), &simd::scalar_table());
}

TEST(SimdDispatch, ForcingEverySupportedBackendSticks) {
  BackendGuard guard;
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    const Backend got = simd::set_backend(b);
    if (simd::supported(b)) {
      EXPECT_EQ(got, b) << simd::to_string(b);
      EXPECT_EQ(simd::active(), b);
      EXPECT_EQ(&simd::table(), &simd::table_for(b));
    } else {
      // Unsupported requests clamp to the best supported backend.
      EXPECT_EQ(got, simd::best_supported()) << simd::to_string(b);
    }
  }
}

TEST(SimdDispatch, TableForUnsupportedBackendIsScalar) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) {
      EXPECT_EQ(&simd::table_for(b), &simd::scalar_table())
          << simd::to_string(b);
    }
  }
}

TEST(SimdDispatch, EveryTablePointerIsNonNull) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const simd::KernelTable& kt = simd::table_for(static_cast<Backend>(i));
    EXPECT_NE(kt.copy_d, nullptr);
    EXPECT_NE(kt.gather_d, nullptr);
    EXPECT_NE(kt.strided_copy_d, nullptr);
    EXPECT_NE(kt.add_d, nullptr);
    EXPECT_NE(kt.scale_d, nullptr);
    EXPECT_NE(kt.scale2_d, nullptr);
    EXPECT_NE(kt.select_d, nullptr);
    EXPECT_NE(kt.radabs_pair_d, nullptr);
    EXPECT_NE(kt.mom_stencil_d, nullptr);
    EXPECT_NE(kt.mix_unstable_d, nullptr);
    EXPECT_NE(kt.pop_eta_d, nullptr);
    EXPECT_NE(kt.pop_momentum_d, nullptr);
    EXPECT_NE(kt.pop_tracer_d, nullptr);
    EXPECT_NE(kt.fft_combine2, nullptr);
    EXPECT_NE(kt.fft_combine3, nullptr);
    EXPECT_NE(kt.fft_combine5, nullptr);
    EXPECT_NE(kt.axpy_cd_r, nullptr);
    EXPECT_NE(kt.dot_cd_r, nullptr);
    EXPECT_NE(kt.dot2_cd_r, nullptr);
  }
}

}  // namespace
