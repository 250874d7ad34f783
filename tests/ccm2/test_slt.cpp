#include "ccm2/slt.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "spectral/gauss.hpp"

namespace {

using namespace ncar;
using ccm2::SemiLagrangian;

class SltTest : public ::testing::Test {
protected:
  static constexpr int kLon = 64;
  static constexpr int kLat = 32;
  static constexpr double kRadius = 6.371e6;
  spectral::GaussNodes nodes = spectral::gauss_legendre(kLat);
  SemiLagrangian slt{nodes, kLon, kRadius};

  Array2D<double> blob() const {
    Array2D<double> q(kLon, kLat);
    for (std::size_t j = 0; j < kLat; ++j) {
      const double phi = std::asin(nodes.mu[j]);
      for (std::size_t i = 0; i < kLon; ++i) {
        const double lam = 2.0 * M_PI * static_cast<double>(i) / kLon;
        q(i, j) = std::exp(-8.0 * ((lam - M_PI) * (lam - M_PI) + phi * phi));
      }
    }
    return q;
  }
};

TEST_F(SltTest, ZeroWindIsIdentity) {
  auto q = blob();
  Array2D<double> u(kLon, kLat), v(kLon, kLat), out(kLon, kLat);
  slt.advect(q, u, v, 1200.0, out);
  for (std::size_t k = 0; k < q.size(); ++k) {
    EXPECT_NEAR(out.flat()[k], q.flat()[k], 1e-12);
  }
}

TEST_F(SltTest, UniformZonalWindShiftsByExactlyOneCell) {
  auto q = blob();
  Array2D<double> u(kLon, kLat), v(kLon, kLat), out(kLon, kLat);
  const double dlam = 2.0 * M_PI / kLon;
  const double dt = 1200.0;
  for (std::size_t j = 0; j < kLat; ++j) {
    const double cphi = std::cos(std::asin(nodes.mu[j]));
    for (std::size_t i = 0; i < kLon; ++i) {
      u(i, j) = dlam * kRadius * cphi / dt;  // one grid cell per step
    }
  }
  slt.advect(q, u, v, dt, out);
  for (std::size_t j = 0; j < kLat; ++j) {
    for (std::size_t i = 0; i < kLon; ++i) {
      EXPECT_NEAR(out(i, j), q((i + kLon - 1) % kLon, j), 1e-9);
    }
  }
}

TEST_F(SltTest, FullRevolutionReturnsBlob) {
  // Advect one full rotation in kLon steps of one cell each; the
  // interpolation at exact grid points is lossless.
  auto q = blob();
  const auto q0 = q;
  Array2D<double> u(kLon, kLat), v(kLon, kLat), out(kLon, kLat);
  const double dlam = 2.0 * M_PI / kLon;
  const double dt = 600.0;
  for (std::size_t j = 0; j < kLat; ++j) {
    const double cphi = std::cos(std::asin(nodes.mu[j]));
    for (std::size_t i = 0; i < kLon; ++i) {
      u(i, j) = dlam * kRadius * cphi / dt;
    }
  }
  for (int s = 0; s < kLon; ++s) {
    slt.advect(q, u, v, dt, out);
    std::swap(q, out);
  }
  for (std::size_t k = 0; k < q.size(); ++k) {
    EXPECT_NEAR(q.flat()[k], q0.flat()[k], 1e-9);
  }
}

TEST_F(SltTest, ShapePreservingNoNewExtrema) {
  auto q = blob();
  double qmin = 1e300, qmax = -1e300;
  for (double v : q.flat()) {
    qmin = std::min(qmin, v);
    qmax = std::max(qmax, v);
  }
  Array2D<double> u(kLon, kLat), v(kLon, kLat), out(kLon, kLat);
  // An irregular wind field (off-grid departure points).
  for (std::size_t j = 0; j < kLat; ++j) {
    for (std::size_t i = 0; i < kLon; ++i) {
      u(i, j) = 23.7 + 5.0 * std::sin(0.3 * i);
      v(i, j) = 4.1 * std::cos(0.2 * j);
    }
  }
  for (int s = 0; s < 20; ++s) {
    slt.advect(q, u, v, 1200.0, out);
    std::swap(q, out);
  }
  for (double val : q.flat()) {
    EXPECT_GE(val, qmin - 1e-12);
    EXPECT_LE(val, qmax + 1e-12);
  }
}

TEST_F(SltTest, PositivityPreserved) {
  auto q = blob();  // non-negative
  Array2D<double> u(kLon, kLat), v(kLon, kLat), out(kLon, kLat);
  u.fill(31.0);
  v.fill(-6.0);
  for (int s = 0; s < 50; ++s) {
    slt.advect(q, u, v, 1200.0, out);
    std::swap(q, out);
  }
  for (double val : q.flat()) EXPECT_GE(val, 0.0);
}

TEST_F(SltTest, MassApproximatelyConservedUnderRotation) {
  auto q = blob();
  const double m0 = slt.mass(q);
  Array2D<double> u(kLon, kLat), v(kLon, kLat), out(kLon, kLat);
  u.fill(25.0);
  for (int s = 0; s < 50; ++s) {
    slt.advect(q, u, v, 1200.0, out);
    std::swap(q, out);
  }
  // SLT is not exactly conservative; drift stays within a few percent.
  EXPECT_NEAR(slt.mass(q), m0, 0.05 * m0);
}

TEST_F(SltTest, ShapeMismatchThrows) {
  Array2D<double> q(kLon, kLat), small(8, 8), out(kLon, kLat);
  EXPECT_THROW(slt.advect(small, q, q, 100.0, out), ncar::precondition_error);
  EXPECT_THROW(slt.advect(q, q, q, -1.0, out), ncar::precondition_error);
}

TEST_F(SltTest, BitIdenticalForEveryPoolWidth) {
  // Random winds send departure points across rows, so lanes read rows
  // owned by other lanes; 32 latitudes do not split evenly 3 or 7 ways.
  const auto q = blob();
  Array2D<double> u(kLon, kLat), v(kLon, kLat);
  Rng rng(7);
  for (double& x : u.flat()) x = rng.uniform(-80, 80);
  for (double& x : v.flat()) x = rng.uniform(-40, 40);
  Array2D<double> ref(kLon, kLat);
  slt.advect(q, u, v, 1200.0, ref);
  for (int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    Array2D<double> out(kLon, kLat);
    slt.advect(q, u, v, 1200.0, out, &pool);
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(out.flat()[k], ref.flat()[k])
          << "threads " << threads << " k=" << k;
    }
  }
}

}  // namespace
