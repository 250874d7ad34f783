#include "spectral/sht.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace ncar;
using spectral::cd;
using spectral::ShTransform;

/// Random band-limited spectral state (m=0 column real, others complex).
std::vector<cd> random_spec(const ShTransform& sht, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cd> s(static_cast<std::size_t>(sht.spec_size()));
  const auto& idx = sht.index();
  for (int m = 0; m <= sht.truncation(); ++m) {
    for (int n = m; n <= sht.truncation(); ++n) {
      const double re = rng.uniform(-1, 1);
      const double im = (m == 0) ? 0.0 : rng.uniform(-1, 1);
      s[static_cast<std::size_t>(idx.at(m, n))] = cd(re, im);
    }
  }
  return s;
}

class ShtTest : public ::testing::Test {
protected:
  ShTransform sht{21, 32, 64};  // T21 on a 64 x 32 grid
};

TEST_F(ShtTest, RoundTripSpectralIdentity) {
  const auto s = random_spec(sht, 1);
  Array2D<double> grid(64, 32);
  std::vector<cd> back(s.size());
  sht.synthesis(s, grid);
  sht.analysis(grid, back);
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(std::abs(back[k] - s[k]), 0.0, 1e-11) << "k=" << k;
  }
}

TEST_F(ShtTest, RoundTripGridIdentityForBandLimitedField) {
  // Synthesised fields are band-limited by construction; a second
  // synthesis-analysis round trip must reproduce the grid exactly.
  const auto s = random_spec(sht, 2);
  Array2D<double> g1(64, 32), g2(64, 32);
  std::vector<cd> spec(s.size());
  sht.synthesis(s, g1);
  sht.analysis(g1, spec);
  sht.synthesis(spec, g2);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g1.flat()[i], g2.flat()[i], 1e-11);
  }
}

TEST_F(ShtTest, ConstantFieldIsPureY00) {
  Array2D<double> grid(64, 32);
  grid.fill(3.25);
  std::vector<cd> spec(static_cast<std::size_t>(sht.spec_size()));
  sht.analysis(grid, spec);
  EXPECT_NEAR(spec[static_cast<std::size_t>(sht.index().at(0, 0))].real(),
              3.25, 1e-12);
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      if (m == 0 && n == 0) continue;
      EXPECT_NEAR(
          std::abs(spec[static_cast<std::size_t>(sht.index().at(m, n))]), 0.0,
          1e-11);
    }
  }
}

TEST_F(ShtTest, ZonalWavenumberLandsInItsColumn) {
  // cos(3 lambda) projects only onto m = 3.
  Array2D<double> grid(64, 32);
  for (std::size_t j = 0; j < 32; ++j) {
    for (std::size_t i = 0; i < 64; ++i) {
      grid(i, j) = std::cos(3.0 * 2.0 * M_PI * static_cast<double>(i) / 64.0);
    }
  }
  std::vector<cd> spec(static_cast<std::size_t>(sht.spec_size()));
  sht.analysis(grid, spec);
  double in_col = 0, out_col = 0;
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      const double a =
          std::abs(spec[static_cast<std::size_t>(sht.index().at(m, n))]);
      (m == 3 ? in_col : out_col) += a;
    }
  }
  EXPECT_GT(in_col, 0.4);
  EXPECT_NEAR(out_col, 0.0, 1e-10);
}

TEST_F(ShtTest, LaplacianEigenvalue) {
  // Y_n^m is an eigenfunction: lap(Y) = -n(n+1)/a^2 Y. Check via grid.
  const double a = 6.371e6;
  auto s = random_spec(sht, 3);
  auto lap = s;
  sht.laplacian(lap, a);
  const auto& idx = sht.index();
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      const cd want = s[static_cast<std::size_t>(idx.at(m, n))] *
                      (-static_cast<double>(n) * (n + 1.0) / (a * a));
      EXPECT_NEAR(std::abs(lap[static_cast<std::size_t>(idx.at(m, n))] - want),
                  0.0, 1e-18);
    }
  }
}

TEST_F(ShtTest, InverseLaplacianInvertsAwayFromN0) {
  const double a = 6.371e6;
  auto s = random_spec(sht, 4);
  s[static_cast<std::size_t>(sht.index().at(0, 0))] = cd(0, 0);
  auto t = s;
  sht.laplacian(t, a);
  sht.inverse_laplacian(t, a);
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(std::abs(t[k] - s[k]), 0.0, 1e-12);
  }
}

TEST_F(ShtTest, GradientOfZonalFieldIsMeridionalOnly) {
  // A zonal (m=0) field has zero lambda-derivative.
  auto s = random_spec(sht, 5);
  const auto& idx = sht.index();
  for (int m = 1; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      s[static_cast<std::size_t>(idx.at(m, n))] = cd(0, 0);
    }
  }
  Array2D<double> dlam(64, 32), dmu(64, 32);
  sht.synthesis_gradient(s, dlam, dmu);
  for (double v : dlam.flat()) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST_F(ShtTest, LambdaGradientMatchesFiniteDifference) {
  // Central differences are only accurate well below the Nyquist
  // wavenumber, so restrict the state to m <= 4, n <= 6.
  auto s = random_spec(sht, 6);
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      if (m > 2 || n > 4) {
        s[static_cast<std::size_t>(sht.index().at(m, n))] = cd(0, 0);
      }
    }
  }
  Array2D<double> grid(64, 32), dlam(64, 32), dmu(64, 32);
  sht.synthesis(s, grid);
  sht.synthesis_gradient(s, dlam, dmu);
  const double dl = 2.0 * M_PI / 64.0;
  for (std::size_t j = 0; j < 32; ++j) {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::size_t ip = (i + 1) % 64, im = (i + 63) % 64;
      const double fd4 = (grid(ip, j) - grid(im, j)) / (2 * dl);
      // Central FD attenuates mode m by sin(m dl)/(m dl); with m <= 2 the
      // worst-case attenuation is ~0.64%, so a 3% + offset band is safe.
      EXPECT_NEAR(dlam(i, j), fd4, 0.03 * std::max(1.0, std::abs(fd4)) + 0.02);
    }
  }
}

TEST_F(ShtTest, MuGradientMatchesLegendreDifference) {
  // Spot-check (1-mu^2) d/dmu via high-resolution synthesis at shifted
  // latitudes is costly; instead verify against the analytic derivative of
  // a single (m, n) = (0, 2) mode: field = sqrt(5)/2 (3 mu^2 - 1),
  // (1-mu^2) d/dmu = sqrt(5) * 3 mu (1 - mu^2).
  std::vector<cd> s(static_cast<std::size_t>(sht.spec_size()), cd(0, 0));
  s[static_cast<std::size_t>(sht.index().at(0, 2))] = cd(1, 0);
  Array2D<double> dlam(64, 32), dmu(64, 32);
  sht.synthesis_gradient(s, dlam, dmu);
  for (std::size_t j = 0; j < 32; ++j) {
    const double mu = sht.nodes().mu[j];
    const double want = std::sqrt(5.0) * 3.0 * mu * (1.0 - mu * mu);
    EXPECT_NEAR(dmu(0, j), want, 1e-10);
  }
}

TEST(Sht, PaperResolutionsConstruct) {
  // Table 4 grids: T42 64x128, T63 96x192, T85 128x256 (lat x lon).
  ShTransform t42(42, 64, 128);
  EXPECT_EQ(t42.spec_size(), 43 * 44 / 2);
  ShTransform t63(63, 96, 192);
  EXPECT_EQ(t63.truncation(), 63);
}

TEST(Sht, RejectsGridTooCoarseForTruncation) {
  EXPECT_THROW(ShTransform(42, 64, 64), ncar::precondition_error);
}

TEST(Sht, TransformFlopsScaleWithResolution) {
  ShTransform t21(21, 32, 64), t42(42, 64, 128);
  EXPECT_GT(t42.transform_flops(), 6.0 * t21.transform_flops());
}

// --- lane invariance ----------------------------------------------------------
// Every transform must give bit-identical output with no pool and with any
// pool width, including widths that do not divide the latitude count and
// widths above the number of m columns.

struct ShtOutputs {
  std::vector<cd> spec;
  Array2D<double> grid, dlam, dmu;
};

ShtOutputs run_transforms(ShTransform& sht, ThreadPool* pool) {
  sht.set_thread_pool(pool);
  const auto nlon = static_cast<std::size_t>(sht.nlon());
  const auto nlat = static_cast<std::size_t>(sht.nlat());
  const auto s = random_spec(sht, 11);
  ShtOutputs out{std::vector<cd>(s.size()), Array2D<double>(nlon, nlat),
                 Array2D<double>(nlon, nlat), Array2D<double>(nlon, nlat)};
  sht.synthesis(s, out.grid);
  sht.synthesis_gradient(s, out.dlam, out.dmu);
  // Analyse a field that is not band-limited so every column carries
  // rounding residue.
  Array2D<double> noisy(nlon, nlat);
  Rng rng(12);
  for (double& v : noisy.flat()) v = rng.uniform(-1, 1);
  sht.analysis(noisy, out.spec);
  return out;
}

void expect_bitwise_equal(const Array2D<double>& a, const Array2D<double>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a.flat()[k], b.flat()[k]) << what << " k=" << k;
  }
}

void expect_lane_invariant(int truncation, int nlat, int nlon) {
  ShTransform sht(truncation, nlat, nlon);
  const ShtOutputs ref = run_transforms(sht, nullptr);
  for (int threads : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    const ShtOutputs got = run_transforms(sht, &pool);
    ASSERT_EQ(got.spec.size(), ref.spec.size());
    for (std::size_t k = 0; k < ref.spec.size(); ++k) {
      EXPECT_EQ(got.spec[k].real(), ref.spec[k].real()) << "analysis k=" << k;
      EXPECT_EQ(got.spec[k].imag(), ref.spec[k].imag()) << "analysis k=" << k;
    }
    expect_bitwise_equal(got.grid, ref.grid, "synthesis");
    expect_bitwise_equal(got.dlam, ref.dlam, "synthesis_gradient dlam");
    expect_bitwise_equal(got.dmu, ref.dmu, "synthesis_gradient dmu");
  }
}

TEST(ShtLanes, T42BitIdenticalForEveryPoolWidth) {
  // 64 latitudes split 7 ways leave uneven blocks.
  expect_lane_invariant(42, 64, 128);
}

TEST(ShtLanes, FewerMColumnsThanLanesBitIdentical) {
  // T3: four m columns (two quadrature pairs) and six latitudes.
  expect_lane_invariant(3, 6, 12);
}

}  // namespace
