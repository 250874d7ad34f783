#include "ccm2/slt.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ncar::ccm2 {

SemiLagrangian::SemiLagrangian(const spectral::GaussNodes& nodes, int nlon,
                               double radius)
    : nlon_(nlon), radius_(radius) {
  NCAR_REQUIRE(nlon >= 4, "need at least four longitudes");
  NCAR_REQUIRE(radius > 0, "radius must be positive");
  NCAR_REQUIRE(nodes.mu.size() >= 2, "need at least two latitudes");
  phi_.reserve(nodes.mu.size());
  for (double mu : nodes.mu) phi_.push_back(std::asin(mu));
  weight_ = nodes.weight;
  dlon_ = 2.0 * std::numbers::pi / nlon;
}

int SemiLagrangian::lat_cell(double phi) const {
  const auto it = std::upper_bound(phi_.begin(), phi_.end(), phi);
  long j = std::distance(phi_.begin(), it) - 1;
  j = std::clamp<long>(j, 0, static_cast<long>(phi_.size()) - 2);
  return static_cast<int>(j);
}

void SemiLagrangian::advect(const Array2D<double>& q, const Array2D<double>& u,
                            const Array2D<double>& v, double dt,
                            Array2D<double>& out, ThreadPool* pool) const {
  const std::size_t nlon = static_cast<std::size_t>(nlon_);
  const std::size_t nlat = phi_.size();
  NCAR_REQUIRE(q.ni() == nlon && q.nj() == nlat, "q shape");
  NCAR_REQUIRE(u.ni() == nlon && u.nj() == nlat, "u shape");
  NCAR_REQUIRE(v.ni() == nlon && v.nj() == nlat, "v shape");
  NCAR_REQUIRE(out.ni() == nlon && out.nj() == nlat, "out shape");
  NCAR_REQUIRE(dt > 0, "time step must be positive");

  const double phi_min = phi_.front();
  const double phi_max = phi_.back();

  const auto advect_rows = [&](int, int row_lo, int row_hi) {
    for (auto j = static_cast<std::size_t>(row_lo);
         j < static_cast<std::size_t>(row_hi); ++j) {
      const double cosphi = std::cos(phi_[j]);
      for (std::size_t i = 0; i < nlon; ++i) {
        // Backward trajectory (one Euler step; adequate for the benchmark's
        // CFL-respecting time steps).
        const double lam_d =
            static_cast<double>(i) * dlon_ - u(i, j) * dt / (radius_ * cosphi);
        const double phi_d =
            std::clamp(phi_[j] - v(i, j) * dt / radius_, phi_min, phi_max);

        // Longitude cell (periodic).
        double lam_rel = lam_d / dlon_;
        lam_rel -= std::floor(lam_rel / nlon_) * nlon_;
        const long i0 = static_cast<long>(std::floor(lam_rel)) % nlon_;
        const long i1 = (i0 + 1) % nlon_;
        const double fx = lam_rel - std::floor(lam_rel);

        // Latitude cell (clamped at the poleward-most circles).
        const int j0 = lat_cell(phi_d);
        const int j1 = j0 + 1;
        const double span = phi_[static_cast<std::size_t>(j1)] -
                            phi_[static_cast<std::size_t>(j0)];
        const double fy =
            std::clamp((phi_d - phi_[static_cast<std::size_t>(j0)]) / span, 0.0,
                       1.0);

        // Bilinear interpolation — the gather — over the four corners.
        const double q00 = q(static_cast<std::size_t>(i0), static_cast<std::size_t>(j0));
        const double q10 = q(static_cast<std::size_t>(i1), static_cast<std::size_t>(j0));
        const double q01 = q(static_cast<std::size_t>(i0), static_cast<std::size_t>(j1));
        const double q11 = q(static_cast<std::size_t>(i1), static_cast<std::size_t>(j1));
        double val = (1 - fx) * (1 - fy) * q00 + fx * (1 - fy) * q10 +
                     (1 - fx) * fy * q01 + fx * fy * q11;

        // Shape-preserving limiter: stay inside the cell envelope.
        const double lo = std::min(std::min(q00, q10), std::min(q01, q11));
        const double hi = std::max(std::max(q00, q10), std::max(q01, q11));
        val = std::clamp(val, lo, hi);

        out(i, j) = val;
      }
    }
  };
  parallel_blocks(pool, static_cast<int>(nlat), advect_rows);
}

double SemiLagrangian::mass(const Array2D<double>& q) const {
  double total = 0;
  for (std::size_t j = 0; j < phi_.size(); ++j) {
    double row = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(nlon_); ++i) {
      row += q(i, j);
    }
    total += weight_[j] * row / static_cast<double>(nlon_);
  }
  return total;
}

}  // namespace ncar::ccm2
