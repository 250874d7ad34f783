#include "spectral/legendre.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ncar::spectral {

TriangularIndex::TriangularIndex(int truncation) : t_(truncation) {
  NCAR_REQUIRE(truncation >= 1, "truncation must be at least 1");
  offsets_.resize(static_cast<std::size_t>(t_) + 2);
  int off = 0;
  for (int m = 0; m <= t_; ++m) {
    offsets_[static_cast<std::size_t>(m)] = off;
    off += t_ - m + 1;
  }
  offsets_[static_cast<std::size_t>(t_) + 1] = off;
}

int TriangularIndex::at(int m, int n) const {
  NCAR_REQUIRE(m >= 0 && m <= t_ && n >= m && n <= t_, "coefficient (m,n)");
  return offsets_[static_cast<std::size_t>(m)] + (n - m);
}

int TriangularIndex::column_start(int m) const {
  NCAR_REQUIRE(m >= 0 && m <= t_, "column m");
  return offsets_[static_cast<std::size_t>(m)];
}

namespace {

double eps(int n, int m) {
  const double nn = static_cast<double>(n), mm = static_cast<double>(m);
  return std::sqrt((nn * nn - mm * mm) / (4.0 * nn * nn - 1.0));
}

/// The column recurrence of one truncation T, with its coefficients
/// tabulated once: eps(n, m) for 0 <= m <= T and m <= n <= T+1 (the
/// derivative reads degree T+1), m-major, and the diagonal factors
/// sqrt((2m+1)/2m). Every value is the double the inline expressions give.
class Recurrence {
public:
  explicit Recurrence(int t) : t_(t), diag_(static_cast<std::size_t>(t) + 1) {
    for (int m = 0; m <= t; ++m) {
      for (int n = m; n <= t + 1; ++n) eps_.push_back(eps(n, m));
      if (m > 0) {
        diag_[static_cast<std::size_t>(m)] =
            std::sqrt((2.0 * m + 1.0) / (2.0 * m));
      }
    }
  }

  /// Pbar_n^m(mu) for every coefficient of the truncation into `p`, in
  /// TriangularIndex order, and, when `dp` is not null, (1 - mu^2)
  /// dPbar_n^m/dmu into `dp`. Allocates nothing.
  void row(double mu, double* p, double* dp) const {
    const double s = std::sqrt(1.0 - mu * mu);
    double pmm = 1.0;  // Pbar_m^m, carried along the column starts
    int col = 0;
    const double* e = eps_.data();
    for (int m = 0; m <= t_; ++m) {
      if (m > 0) pmm = diag_[static_cast<std::size_t>(m)] * s * pmm;
      double* pc = p + col;
      const int len = t_ - m + 1;
      // e[k] = eps(m + k, m) for k <= len; pc[k] = Pbar_{m+k}^m.
      double pm2 = 0.0;  // Pbar_{m-1}^m ( = 0 )
      double pm1 = pmm;
      pc[0] = pm1;
      for (int k = 1; k < len; ++k) {
        const double v = (mu * pm1 - e[k - 1] * pm2) / e[k];
        pc[k] = v;
        pm2 = pm1;
        pm1 = v;
      }
      if (dp != nullptr) {
        // Pbar_{T+1}^m, read by the derivative at n = T.
        const double top = (mu * pm1 - e[len - 1] * pm2) / e[len];
        double* dc = dp + col;
        for (int k = 0; k < len; ++k) {
          const int n = m + k;
          const double pnp1 = k + 1 < len ? pc[k + 1] : top;
          const double pnm1 = k > 0 ? pc[k - 1] : 0.0;
          // (1 - mu^2) dPbar_n^m/dmu = -n eps(n+1,m) Pbar_{n+1}^m
          //                            + (n+1) eps(n,m) Pbar_{n-1}^m
          dc[k] = -static_cast<double>(n) * e[k + 1] * pnp1 +
                  static_cast<double>(n + 1) * e[k] * pnm1;
        }
      }
      col += len;
      e += len + 1;
    }
  }

private:
  int t_;
  std::vector<double> eps_;  // columns m = 0..T, each n = m..T+1
  std::vector<double> diag_;
};

}  // namespace

void evaluate_pbar(int truncation, double mu, const TriangularIndex& idx,
                   std::vector<double>& out) {
  NCAR_REQUIRE(idx.truncation() == truncation, "index mismatch");
  out.resize(static_cast<std::size_t>(idx.size()));
  Recurrence(truncation).row(mu, out.data(), nullptr);
}

LegendreTable::LegendreTable(int truncation, const GaussNodes& nodes,
                             ThreadPool* pool)
    : index_(truncation), nlat_(static_cast<int>(nodes.mu.size())) {
  NCAR_REQUIRE(nlat_ >= truncation + 1,
               "need at least T+1 Gaussian latitudes for exact quadrature");
  const std::size_t cells = static_cast<std::size_t>(index_.size()) *
                            static_cast<std::size_t>(nlat_);
  p_ = std::make_unique_for_overwrite<double[]>(cells);
  dp_ = std::make_unique_for_overwrite<double[]>(cells);
  const Recurrence rec(truncation);
  parallel_blocks(pool, nlat_, [&](int, int lo, int hi) {
    for (int j = lo; j < hi; ++j) {
      rec.row(nodes.mu[static_cast<std::size_t>(j)], p_.get() + row_offset(j),
              dp_.get() + row_offset(j));
    }
  });
}

std::size_t LegendreTable::row_offset(int j) const {
  NCAR_REQUIRE(j >= 0 && j < nlat_, "latitude index");
  return static_cast<std::size_t>(j) * static_cast<std::size_t>(index_.size());
}

double LegendreTable::p(int j, int m, int n) const {
  return p_[row_offset(j) + static_cast<std::size_t>(index_.at(m, n))];
}

double LegendreTable::dp(int j, int m, int n) const {
  return dp_[row_offset(j) + static_cast<std::size_t>(index_.at(m, n))];
}

const double* LegendreTable::p_column(int j, int m) const {
  return p_.get() + row_offset(j) +
         static_cast<std::size_t>(index_.column_start(m));
}

const double* LegendreTable::dp_column(int j, int m) const {
  return dp_.get() + row_offset(j) +
         static_cast<std::size_t>(index_.column_start(m));
}

}  // namespace ncar::spectral
