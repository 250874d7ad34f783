#include "spectral/legendre.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "support/fnv1a.hpp"

namespace {

using namespace ncar::spectral;

TEST(TriangularIndex, SizeIsTrianglePlusDiagonal) {
  TriangularIndex idx(42);
  EXPECT_EQ(idx.size(), 43 * 44 / 2);
  EXPECT_EQ(idx.column_length(0), 43);
  EXPECT_EQ(idx.column_length(42), 1);
}

TEST(TriangularIndex, FlatIndicesAreDenseAndOrdered) {
  TriangularIndex idx(5);
  int expect = 0;
  for (int m = 0; m <= 5; ++m) {
    EXPECT_EQ(idx.column_start(m), expect);
    for (int n = m; n <= 5; ++n) {
      EXPECT_EQ(idx.at(m, n), expect++);
    }
  }
  EXPECT_EQ(expect, idx.size());
}

TEST(TriangularIndex, OutOfRangeThrows) {
  TriangularIndex idx(5);
  EXPECT_THROW(idx.at(6, 6), ncar::precondition_error);
  EXPECT_THROW(idx.at(3, 2), ncar::precondition_error);  // n < m
  EXPECT_THROW(idx.at(-1, 0), ncar::precondition_error);
}

class LegendreTableTest : public ::testing::Test {
protected:
  static constexpr int kT = 21;
  static constexpr int kLat = 32;
  GaussNodes nodes = gauss_legendre(kLat);
  LegendreTable table{kT, nodes};
};

TEST_F(LegendreTableTest, MatchesClosedFormsLowDegree) {
  // Pbar_0^0 = 1, Pbar_1^0 = sqrt(3) mu, Pbar_1^1 = sqrt(3/2) sqrt(1-mu^2).
  for (int j = 0; j < kLat; ++j) {
    const double mu = nodes.mu[static_cast<std::size_t>(j)];
    EXPECT_NEAR(table.p(j, 0, 0), 1.0, 1e-13);
    EXPECT_NEAR(table.p(j, 0, 1), std::sqrt(3.0) * mu, 1e-13);
    EXPECT_NEAR(table.p(j, 1, 1), std::sqrt(1.5) * std::sqrt(1 - mu * mu),
                1e-13);
    EXPECT_NEAR(table.p(j, 0, 2), std::sqrt(5.0) * 0.5 * (3 * mu * mu - 1),
                1e-12);
  }
}

TEST_F(LegendreTableTest, OrthonormalUnderGaussianQuadrature) {
  // (1/2) sum_j w_j Pbar_n^m Pbar_n'^m = delta(n, n').
  for (int m : {0, 1, 5, 13}) {
    for (int n = m; n <= kT; ++n) {
      for (int n2 = m; n2 <= kT; ++n2) {
        double dot = 0;
        for (int j = 0; j < kLat; ++j) {
          dot += 0.5 * nodes.weight[static_cast<std::size_t>(j)] *
                 table.p(j, m, n) * table.p(j, m, n2);
        }
        EXPECT_NEAR(dot, n == n2 ? 1.0 : 0.0, 1e-11)
            << "m=" << m << " n=" << n << " n'=" << n2;
      }
    }
  }
}

TEST_F(LegendreTableTest, DerivativeMatchesFiniteDifference) {
  // dp stores (1-mu^2) dPbar/dmu; compare against a central difference of
  // evaluate_pbar.
  const TriangularIndex& idx = table.index();
  const double h = 1e-6;
  std::vector<double> lo, hi;
  for (int j : {3, 17, 28}) {
    const double mu = nodes.mu[static_cast<std::size_t>(j)];
    evaluate_pbar(kT, mu - h, idx, lo);
    evaluate_pbar(kT, mu + h, idx, hi);
    for (int m : {0, 2, 9}) {
      for (int n = m; n <= kT; ++n) {
        const double fd = (hi[static_cast<std::size_t>(idx.at(m, n))] -
                           lo[static_cast<std::size_t>(idx.at(m, n))]) /
                          (2 * h);
        const double want = (1 - mu * mu) * fd;
        EXPECT_NEAR(table.dp(j, m, n), want, 1e-5 * std::max(1.0, std::abs(want)))
            << "m=" << m << " n=" << n;
      }
    }
  }
}

TEST_F(LegendreTableTest, ColumnsAreContiguous) {
  for (int m : {0, 7}) {
    const double* col = table.p_column(5, m);
    for (int n = m; n <= kT; ++n) {
      EXPECT_DOUBLE_EQ(col[n - m], table.p(5, m, n));
    }
  }
}

TEST_F(LegendreTableTest, ParityAlternatesAcrossEquator) {
  // Pbar_n^m(-mu) = (-1)^(n-m) Pbar_n^m(mu); Gaussian nodes are symmetric.
  for (int m : {0, 1, 4}) {
    for (int n = m; n <= kT; ++n) {
      const double south = table.p(0, m, n);
      const double north = table.p(kLat - 1, m, n);
      const double sign = ((n - m) % 2 == 0) ? 1.0 : -1.0;
      EXPECT_NEAR(south, sign * north, 1e-11);
    }
  }
}

TEST(LegendreTable, TooFewLatitudesThrow) {
  const auto nodes = gauss_legendre(8);
  EXPECT_THROW(LegendreTable(10, nodes), ncar::precondition_error);
}

// --- bit-for-bit pins ------------------------------------------------------
// FNV-1a over the bit patterns of every p and dp entry, latitude-major in
// storage order, at CCM2's T42 (128 x 64) and T170 (512 x 256) grids.
// Recorded from the serial per-latitude builder that evaluated eps(n, m)
// inline, before the coefficients were tabulated and the latitudes split
// over pool lanes; both had to leave every double as it was. Checked inline
// and on four lanes.

struct TableHashes {
  std::uint64_t p, dp;
};

TableHashes table_hashes(const LegendreTable& table) {
  std::vector<double> p, dp;
  for (int j = 0; j < table.nlat(); ++j) {
    for (int m = 0; m <= table.truncation(); ++m) {
      const int len = table.index().column_length(m);
      p.insert(p.end(), table.p_column(j, m), table.p_column(j, m) + len);
      dp.insert(dp.end(), table.dp_column(j, m), table.dp_column(j, m) + len);
    }
  }
  return {ncar::test::fnv1a(p), ncar::test::fnv1a(dp)};
}

void expect_pinned(int truncation, int nlat, TableHashes want) {
  const GaussNodes nodes = gauss_legendre(nlat);
  ncar::ThreadPool pool(4);
  for (ncar::ThreadPool* p : {static_cast<ncar::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "4 lanes");
    const TableHashes got = table_hashes(LegendreTable(truncation, nodes, p));
    EXPECT_EQ(got.p, want.p) << "p hash 0x" << std::hex << got.p;
    EXPECT_EQ(got.dp, want.dp) << "dp hash 0x" << std::hex << got.dp;
  }
}

TEST(LegendrePinned, T42) {
  expect_pinned(42, 64, {0xac93e08854e65761ull, 0x86c4e4d2f41731d5ull});
}

TEST(LegendrePinned, T170) {
  expect_pinned(170, 256, {0xf2d603ec85ba3817ull, 0x213833164506c78dull});
}

// --- lane invariance -------------------------------------------------------
// Each latitude row is built by one lane: the table must be the same doubles
// with no pool and with every pool width, including widths that do not
// divide the latitude count.

void expect_lane_invariant(int truncation, int nlat) {
  const GaussNodes nodes = gauss_legendre(nlat);
  const LegendreTable ref(truncation, nodes);
  const int coeffs = ref.index().size();
  for (const int threads : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ncar::ThreadPool pool(threads);
    const LegendreTable got(truncation, nodes, &pool);
    for (int j = 0; j < nlat; ++j) {
      const double* rp = ref.p_column(j, 0);
      const double* rd = ref.dp_column(j, 0);
      const double* gp = got.p_column(j, 0);
      const double* gd = got.dp_column(j, 0);
      for (int k = 0; k < coeffs; ++k) {
        EXPECT_EQ(gp[k], rp[k]) << "p j=" << j << " k=" << k;
        EXPECT_EQ(gd[k], rd[k]) << "dp j=" << j << " k=" << k;
      }
    }
  }
}

TEST(LegendreLanes, T42BitIdenticalForEveryPoolWidth) {
  expect_lane_invariant(42, 64);
}

TEST(LegendreLanes, FewerLatitudesThanLanesBitIdentical) {
  // T3 on four latitudes: the 7-lane pool leaves lanes without a row.
  expect_lane_invariant(3, 4);
}

TEST(LegendrePbar, MatchesTableRow) {
  // The test hook runs the table builder's recurrence.
  const GaussNodes nodes = gauss_legendre(32);
  const LegendreTable table(21, nodes);
  std::vector<double> row;
  for (int j : {0, 13, 31}) {
    const double mu = nodes.mu[static_cast<std::size_t>(j)];
    evaluate_pbar(21, mu, table.index(), row);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(table.index().size()));
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], table.p_column(j, 0)[k]) << "j=" << j << " k=" << k;
    }
  }
}

}  // namespace
