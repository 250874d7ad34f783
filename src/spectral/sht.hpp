#pragma once
// Spherical harmonic transform on the Gaussian grid (the spectral transform
// method of CCM2, paper section 4.7.1): FFT in longitude, Gauss–Legendre
// quadrature in latitude, triangular truncation.
//
// Conventions: a real grid field f(lambda_i, mu_j) on nlon equally spaced
// longitudes and nlat Gaussian latitudes is represented by complex
// coefficients S(m, n), 0 <= m <= n <= T, with the m < 0 half implied by
// conjugate symmetry. Analysis followed by synthesis is the identity for
// fields band-limited to the truncation (tested).

#include <complex>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/array.hpp"
#include "common/thread_pool.hpp"
#include "fft/complex_fft.hpp"
#include "spectral/legendre.hpp"

namespace ncar::spectral {

using cd = std::complex<double>;

class ShTransform {
public:
  /// A standard quadratic-ish grid: nlon >= 3T+1 avoids aliasing of
  /// quadratic products; nlat = nlon/2. The paper's resolutions (Table 4)
  /// all satisfy this (e.g. T42: 128 x 64).
  ShTransform(int truncation, int nlat, int nlon);

  int truncation() const { return table_.truncation(); }
  int nlat() const { return nlat_; }
  int nlon() const { return nlon_; }
  const TriangularIndex& index() const { return table_.index(); }
  const GaussNodes& nodes() const { return nodes_; }
  const LegendreTable& table() const { return table_; }

  /// Number of complex spectral coefficients.
  int spec_size() const { return index().size(); }

  /// Split the transforms over the lanes of `pool` (nullptr: run inline):
  /// the Legendre sums and longitude FFTs by latitude, the analysis
  /// quadrature by m column. Each output element is still computed by one
  /// lane with the same operations in the same order, so results are
  /// bit-identical for every pool. Sizes one scratch arena per lane and
  /// allocates only when the lane count grows; the pool must outlive every
  /// transform run with it.
  void set_thread_pool(ThreadPool* pool);

  /// Grid -> spectral. `grid` is (nlon, nlat) with longitude contiguous.
  void analysis(const Array2D<double>& grid, std::span<cd> spec) const;

  /// Spectral -> grid.
  void synthesis(std::span<const cd> spec, Array2D<double>& grid) const;

  /// Spectral -> (d/dlambda, (1-mu^2) d/dmu) grid fields.
  void synthesis_gradient(std::span<const cd> spec, Array2D<double>& dlam,
                          Array2D<double>& dmu) const;

  /// In-place spectral Laplacian: S(m,n) *= -n(n+1)/radius^2.
  void laplacian(std::span<cd> spec, double radius) const;

  /// In-place inverse Laplacian (the (0,0) mode is annihilated).
  void inverse_laplacian(std::span<cd> spec, double radius) const;

  /// Approximate flop count of one analysis or synthesis (used by callers
  /// to charge the machine model consistently).
  double transform_flops() const;

private:
  /// Half-spectrum Fourier coefficients per latitude: fm(m, j), m <= T.
  /// Every entry of `fm` is written (callers pass uninitialised arena
  /// spans).
  void fourier_analysis(const Array2D<double>& grid, std::span<cd> fm) const;
  /// Inverse longitude FFT of one latitude's half spectrum: `row` holds
  /// G_m * nlon for m <= T; the bins above T are zeroed here.
  void fourier_synthesis_row(std::span<cd> row, std::span<double> out,
                             Arena& arena) const;

  GaussNodes nodes_;
  LegendreTable table_;
  int nlat_;
  int nlon_;
  fft::Plan plan_;
  ThreadPool* pool_ = nullptr;
  // Workspace sized outside the transforms so they never allocate
  // (mutable: taking scratch does not change observable state — every
  // frame is released before the method returns). arena_ holds the
  // analysis fm plane; lane_arenas_[lane] the Fourier rows and real-FFT
  // scratch of one lane.
  mutable Arena arena_;
  mutable LaneArenas lane_arenas_;
};

}  // namespace ncar::spectral
