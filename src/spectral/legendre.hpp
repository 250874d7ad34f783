#pragma once
// Normalised associated Legendre functions and their derivatives, tabulated
// at the Gaussian latitudes for a triangular truncation T (the "T" of
// T42/T106/T170 in the paper's Table 4).
//
// Normalisation: (1/2) Integral_{-1}^{1} Pbar_n^m(mu)^2 dmu = 1 — the
// convention of spectral climate models, so analysis and synthesis are
// exact inverses under Gaussian quadrature with weights summing to 2.

#include <memory>
#include <vector>

#include "spectral/gauss.hpp"

namespace ncar {
class ThreadPool;
}

namespace ncar::spectral {

/// Index layout for triangular truncation: coefficients (m, n) with
/// 0 <= m <= T and m <= n <= T, stored m-major.
class TriangularIndex {
public:
  explicit TriangularIndex(int truncation);

  int truncation() const { return t_; }
  /// Total coefficient count: (T+1)(T+2)/2.
  int size() const { return static_cast<int>(offsets_.back()); }
  /// Flat index of coefficient (m, n).
  int at(int m, int n) const;
  /// First flat index of the m-column; column length is T - m + 1.
  int column_start(int m) const;
  int column_length(int m) const { return t_ - m + 1; }

private:
  int t_;
  std::vector<int> offsets_;
};

/// Table of Pbar_n^m(mu_j) and (1 - mu^2) dPbar/dmu at each latitude.
///
/// Built per latitude on the lanes of `pool` (nullptr: inline): the
/// recurrence coefficients eps(n, m) and the diagonal factors are tabulated
/// once, then each latitude's row is written by one lane with the same
/// operations in the same order as the serial build, so the table is
/// bit-identical for every pool. The rows are left uninitialised until that
/// lane writes them, so each lane also does the first touch of its pages.
class LegendreTable {
public:
  LegendreTable(int truncation, const GaussNodes& nodes,
                ThreadPool* pool = nullptr);

  int truncation() const { return index_.truncation(); }
  int nlat() const { return nlat_; }
  const TriangularIndex& index() const { return index_; }

  /// Pbar_n^m at latitude j (flat coefficient indexing).
  double p(int j, int m, int n) const;
  /// (1 - mu^2) dPbar_n^m/dmu at latitude j.
  double dp(int j, int m, int n) const;

  /// Contiguous m-column of Pbar values at latitude j (length T-m+1).
  const double* p_column(int j, int m) const;
  const double* dp_column(int j, int m) const;

private:
  std::size_t row_offset(int j) const;

  TriangularIndex index_;
  int nlat_;
  std::unique_ptr<double[]> p_;   // [lat][coeff]
  std::unique_ptr<double[]> dp_;  // [lat][coeff]
};

/// Compute the full vector of Pbar_n^m(mu) for one mu (testing hook; the
/// table builder runs the same recurrence).
void evaluate_pbar(int truncation, double mu, const TriangularIndex& idx,
                   std::vector<double>& out);

}  // namespace ncar::spectral
