#include "spectral/sht.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fft/real_fft.hpp"
#include "simd/simd.hpp"

namespace ncar::spectral {

ShTransform::ShTransform(int truncation, int nlat, int nlon, ThreadPool* pool)
    : nodes_(gauss_legendre(nlat)),
      table_(truncation, nodes_, pool),
      nlat_(nlat),
      nlon_(nlon),
      plan_(nlon),
      pool_(pool),
      // Per lane: two Fourier rows (synthesis_gradient) plus the real-FFT
      // scratch nested after them.
      lane_arenas_(4 * static_cast<std::size_t>(fft::spectrum_size(nlon)) +
                       fft::real_fft_arena_doubles(nlon),
                   pool) {
  NCAR_REQUIRE(nlon >= 2 * (truncation + 1),
               "longitude count cannot represent the truncation");
  NCAR_REQUIRE(fft::Plan::supported(nlon), "nlon must factor into 2,3,5");
  // The analysis fm plane.
  arena_.reserve(static_cast<std::size_t>(truncation + 1) *
                 static_cast<std::size_t>(nlat) * 2);
}

void ShTransform::set_thread_pool(ThreadPool* pool) {
  pool_ = pool;
  lane_arenas_.fit(pool);
}

void ShTransform::fourier_analysis(const Array2D<double>& grid,
                                   std::span<cd> fm) const {
  const int t = truncation();
  parallel_blocks(pool_, nlat_, [&](int lane, int lo, int hi) {
    Arena& arena = lane_arenas_[lane];
    ArenaScope frame(arena);
    auto spec_row =
        arena.take<cd>(static_cast<std::size_t>(fft::spectrum_size(nlon_)));
    for (int j = lo; j < hi; ++j) {
      fft::real_forward(plan_, grid.column(static_cast<std::size_t>(j)),
                        spec_row, arena);
      for (int m = 0; m <= t; ++m) {
        // F[m] = nlon * G_m; store G_m.
        fm[static_cast<std::size_t>(m) * static_cast<std::size_t>(nlat_) +
           static_cast<std::size_t>(j)] =
            spec_row[static_cast<std::size_t>(m)] / static_cast<double>(nlon_);
      }
    }
  });
}

void ShTransform::fourier_synthesis_row(std::span<cd> row,
                                        std::span<double> out,
                                        Arena& arena) const {
  for (std::size_t m = static_cast<std::size_t>(truncation()) + 1;
       m < row.size(); ++m) {
    row[m] = cd(0, 0);
  }
  fft::real_inverse(plan_, row, out, arena);
}

void ShTransform::analysis(const Array2D<double>& grid,
                           std::span<cd> spec) const {
  NCAR_REQUIRE(grid.ni() == static_cast<std::size_t>(nlon_) &&
                   grid.nj() == static_cast<std::size_t>(nlat_),
               "grid shape");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  ArenaScope frame(arena_);
  auto fm = arena_.take<cd>(static_cast<std::size_t>(t + 1) *
                            static_cast<std::size_t>(nlat_));
  fourier_analysis(grid, fm);

  // Quadrature by m column: each column is zeroed, then accumulates the
  // latitudes in ascending order — per element the same sequence of adds
  // as a latitude-outer loop. Index k pairs column k with column T - k so
  // every index carries T + 2 coefficients and equal blocks balance.
  const simd::KernelTable& kt = simd::table();
  const auto accumulate = [&](int m) {
    cd* scol = spec.data() + index().column_start(m);
    const int len = index().column_length(m);
    std::fill(scol, scol + len, cd(0, 0));
    for (int j = 0; j < nlat_; ++j) {
      const double w = 0.5 * nodes_.weight[static_cast<std::size_t>(j)];
      const cd g = w * fm[static_cast<std::size_t>(m) *
                              static_cast<std::size_t>(nlat_) +
                          static_cast<std::size_t>(j)];
      kt.axpy_cd_r(scol, g, table_.p_column(j, m), len);
    }
  };
  parallel_blocks(pool_, t / 2 + 1, [&](int, int lo, int hi) {
    for (int k = lo; k < hi; ++k) {
      accumulate(k);
      if (t - k != k) accumulate(t - k);
    }
  });
  // The m = 0 column of a real field is real; clamp rounding residue.
  {
    cd* scol = spec.data() + index().column_start(0);
    for (int k = 0; k < index().column_length(0); ++k) {
      scol[k] = cd(scol[k].real(), 0.0);
    }
  }
}

void ShTransform::synthesis(std::span<const cd> spec,
                            Array2D<double>& grid) const {
  NCAR_REQUIRE(grid.ni() == static_cast<std::size_t>(nlon_) &&
                   grid.nj() == static_cast<std::size_t>(nlat_),
               "grid shape");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const simd::KernelTable& kt = simd::table();
  parallel_blocks(pool_, nlat_, [&](int lane, int lo, int hi) {
    Arena& arena = lane_arenas_[lane];
    ArenaScope frame(arena);
    auto row =
        arena.take<cd>(static_cast<std::size_t>(fft::spectrum_size(nlon_)));
    for (int j = lo; j < hi; ++j) {
      for (int m = 0; m <= t; ++m) {
        const double* pcol = table_.p_column(j, m);
        const cd* scol = spec.data() + index().column_start(m);
        const int len = index().column_length(m);
        // F[m] = nlon * G_m.
        row[static_cast<std::size_t>(m)] =
            kt.dot_cd_r(scol, pcol, len) * static_cast<double>(nlon_);
      }
      fourier_synthesis_row(row, grid.column(static_cast<std::size_t>(j)),
                            arena);
    }
  });
}

void ShTransform::synthesis_gradient(std::span<const cd> spec,
                                     Array2D<double>& dlam,
                                     Array2D<double>& dmu) const {
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const simd::KernelTable& kt = simd::table();
  parallel_blocks(pool_, nlat_, [&](int lane, int lo, int hi) {
    Arena& arena = lane_arenas_[lane];
    ArenaScope frame(arena);
    const auto bins = static_cast<std::size_t>(fft::spectrum_size(nlon_));
    auto row_lam = arena.take<cd>(bins);
    auto row_mu = arena.take<cd>(bins);
    for (int j = lo; j < hi; ++j) {
      for (int m = 0; m <= t; ++m) {
        const double* pcol = table_.p_column(j, m);
        const double* dcol = table_.dp_column(j, m);
        const cd* scol = spec.data() + index().column_start(m);
        const int len = index().column_length(m);
        cd acc_p(0, 0), acc_d(0, 0);
        kt.dot2_cd_r(scol, pcol, dcol, len, &acc_p, &acc_d);
        const auto mm = static_cast<std::size_t>(m);
        row_lam[mm] = cd(0, 1) * static_cast<double>(m) * acc_p *
                      static_cast<double>(nlon_);
        row_mu[mm] = acc_d * static_cast<double>(nlon_);
      }
      const auto jj = static_cast<std::size_t>(j);
      fourier_synthesis_row(row_lam, dlam.column(jj), arena);
      fourier_synthesis_row(row_mu, dmu.column(jj), arena);
    }
  });
}

void ShTransform::laplacian(std::span<cd> spec, double radius) const {
  NCAR_REQUIRE(radius > 0, "radius");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const double a2 = radius * radius;
  for (int m = 0; m <= t; ++m) {
    cd* scol = spec.data() + index().column_start(m);
    for (int n = m; n <= t; ++n) {
      scol[n - m] *= -static_cast<double>(n) * (n + 1.0) / a2;
    }
  }
}

void ShTransform::inverse_laplacian(std::span<cd> spec, double radius) const {
  NCAR_REQUIRE(radius > 0, "radius");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const double a2 = radius * radius;
  for (int m = 0; m <= t; ++m) {
    cd* scol = spec.data() + index().column_start(m);
    for (int n = m; n <= t; ++n) {
      if (n == 0) {
        scol[n - m] = cd(0, 0);
      } else {
        scol[n - m] *= -a2 / (static_cast<double>(n) * (n + 1.0));
      }
    }
  }
}

double ShTransform::transform_flops() const {
  // Legendre part: nlat latitudes x (T+1)(T+2)/2 coefficients x one complex
  // axpy (4 real flops), plus the longitude FFTs.
  const double legendre =
      static_cast<double>(nlat_) * static_cast<double>(spec_size()) * 4.0;
  const double fft_part = static_cast<double>(nlat_) *
                          2.5 * static_cast<double>(nlon_) *
                          std::log2(static_cast<double>(nlon_));
  return legendre + fft_part;
}

}  // namespace ncar::spectral
