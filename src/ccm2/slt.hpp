#pragma once
// Shape-preserving semi-Lagrangian transport on the Gaussian grid (paper
// section 4.7.1: "trace gases, including water vapor, are transported by
// the wind fields using a shape preserving SLT scheme. This transport
// involves indirect addressing on the Gaussian polar grid.").
//
// Departure points are found by one-step backward trajectories; values are
// bilinearly interpolated (the indirect addressing / gather) and clamped to
// the envelope of the surrounding cell (the shape-preserving limiter of
// Williamson & Rasch).

#include "common/array.hpp"
#include "spectral/gauss.hpp"

namespace ncar {
class ThreadPool;
}

namespace ncar::ccm2 {

class SemiLagrangian {
public:
  /// `nodes` are the Gaussian latitudes (mu ascending), `nlon` equally
  /// spaced longitudes, sphere of `radius` metres.
  SemiLagrangian(const spectral::GaussNodes& nodes, int nlon, double radius);

  /// Advect `q` with winds (u east, v north, m/s) over `dt` seconds.
  /// All fields are (nlon, nlat), longitude contiguous. Latitude rows are
  /// split over the lanes of `pool` (nullptr: inline); every point is
  /// computed by one lane, so `out` is bit-identical for every pool.
  void advect(const Array2D<double>& q, const Array2D<double>& u,
              const Array2D<double>& v, double dt, Array2D<double>& out,
              ThreadPool* pool = nullptr) const;

  /// Global mass integral: sum q * w_j (quadrature-weighted mean * 2).
  double mass(const Array2D<double>& q) const;

  int nlat() const { return static_cast<int>(phi_.size()); }
  int nlon() const { return nlon_; }

private:
  /// Latitude cell containing phi: largest j with phi_[j] <= phi, clamped
  /// to [0, nlat-2].
  int lat_cell(double phi) const;

  std::vector<double> phi_;     ///< latitudes (radians), ascending
  std::vector<double> weight_;  ///< Gaussian weights
  int nlon_;
  double radius_;
  double dlon_;
};

}  // namespace ncar::ccm2
