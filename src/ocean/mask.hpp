#pragma once
// Synthetic land/ocean mask for the ocean model benchmarks.
//
// The NCAR MOM benchmark runs a global domain with real bathymetry (which
// we do not have); this mask builds the closest synthetic equivalent: two
// continental plates whose widths vary with latitude, plus an unbroken
// circumpolar "Southern Ocean" band. The resulting distribution of ocean
// points per latitude row is what drives the benchmark's block-decomposition
// load imbalance — a first-order term in MOM's measured scalability.

#include <vector>

#include "common/array.hpp"

namespace ncar::ocean {

class LandMask {
public:
  /// Build for an nlon x nlat grid; latitudes are equally spaced from
  /// -90+d/2 to 90-d/2.
  LandMask(int nlon, int nlat);

  int nlon() const { return nlon_; }
  int nlat() const { return nlat_; }

  bool ocean(int i, int j) const {
    return mask_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) != 0;
  }

  /// The whole mask, 1 for ocean and 0 for land, i fastest.
  const Array2D<int>& grid() const { return mask_; }

  /// Ocean points in latitude row j.
  int ocean_in_row(int j) const {
    return row_counts_[static_cast<std::size_t>(j)];
  }

  /// Total ocean points.
  long ocean_total() const { return total_; }

  /// Global ocean fraction.
  double ocean_fraction() const {
    return static_cast<double>(total_) /
           (static_cast<double>(nlon_) * static_cast<double>(nlat_));
  }

  /// Max-over-blocks / mean load ratio for a block decomposition of the
  /// latitude rows over `p` processors (work = ocean points per block).
  double block_imbalance(int p) const;

private:
  int nlon_, nlat_;
  Array2D<int> mask_;
  std::vector<int> row_counts_;
  long total_ = 0;
};

}  // namespace ncar::ocean
