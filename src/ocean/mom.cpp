#include "ocean/mom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "simd/simd.hpp"
#include "sxs/ops.hpp"

namespace ncar::ocean {

MomConfig MomConfig::high_resolution() { return MomConfig{}; }

MomConfig MomConfig::low_resolution() {
  MomConfig c;
  c.nlon = 120;
  c.nlat = 60;
  c.nlev = 25;
  return c;
}

Mom::Mom(const MomConfig& cfg, sxs::Node& node)
    : cfg_(cfg),
      node_(&node),
      mask_(cfg.nlon, cfg.nlat),
      temp_(static_cast<std::size_t>(cfg.nlon), static_cast<std::size_t>(cfg.nlat),
            static_cast<std::size_t>(cfg.nlev)),
      salt_(temp_.ni(), temp_.nj(), temp_.nk()),
      psi_(temp_.ni(), temp_.nj()),
      forcing_(temp_.ni(), temp_.nj()),
      u_(temp_.ni(), temp_.nj()),
      v_(temp_.ni(), temp_.nj()),
      scratch_(temp_.ni(), temp_.nj(), temp_.nk()),
      mask_c_(temp_.ni(), temp_.nj()),
      mask_ip_(temp_.ni(), temp_.nj()),
      mask_im_(temp_.ni(), temp_.nj()),
      mask_jp_(temp_.ni(), temp_.nj()),
      mask_jm_(temp_.ni(), temp_.nj()),
      lane_rows_(8 * temp_.ni(), node.host_pool()),
      zeros_(temp_.ni(), 0.0) {
  NCAR_REQUIRE(cfg.nlev >= 2, "need at least two levels");
  NCAR_REQUIRE(cfg.sor_iters >= 1 && cfg.diag_every >= 1, "config");
  // The land mask never changes, so the neighbour selects of the baroclinic
  // stencil can be driven by precomputed 0/1 rows.
  for (int j = 0; j < cfg.nlat; ++j) {
    for (int i = 0; i < cfg.nlon; ++i) {
      const int im = (i + cfg.nlon - 1) % cfg.nlon, ip = (i + 1) % cfg.nlon;
      const std::size_t ii = static_cast<std::size_t>(i);
      const std::size_t jj = static_cast<std::size_t>(j);
      mask_c_(ii, jj) = mask_.ocean(i, j) ? 1.0 : 0.0;
      mask_ip_(ii, jj) = mask_.ocean(ip, j) ? 1.0 : 0.0;
      mask_im_(ii, jj) = mask_.ocean(im, j) ? 1.0 : 0.0;
      mask_jp_(ii, jj) =
          (j + 1 < cfg.nlat && mask_.ocean(i, j + 1)) ? 1.0 : 0.0;
      mask_jm_(ii, jj) = (j > 0 && mask_.ocean(i, j - 1)) ? 1.0 : 0.0;
    }
  }
  reset();
}

void Mom::reset() {
  const int nlon = cfg_.nlon, nlat = cfg_.nlat, nlev = cfg_.nlev;
  for (int k = 0; k < nlev; ++k) {
    const double depth_frac = static_cast<double>(k) / nlev;
    for (int j = 0; j < nlat; ++j) {
      const double lat = -90.0 + (j + 0.5) * 180.0 / nlat;
      const double surface_t = 2.0 + 26.0 * std::cos(lat * M_PI / 180.0);
      for (int i = 0; i < nlon; ++i) {
        const std::size_t ii = static_cast<std::size_t>(i);
        const std::size_t jj = static_cast<std::size_t>(j);
        const std::size_t kk = static_cast<std::size_t>(k);
        temp_(ii, jj, kk) =
            mask_.ocean(i, j) ? surface_t * std::exp(-3.0 * depth_frac) : 0.0;
        salt_(ii, jj, kk) = mask_.ocean(i, j) ? 35.0 - 1.0 * depth_frac : 0.0;
      }
    }
  }
  psi_.fill(0.0);
  // Wind-stress curl forcing: westerlies/trades pattern.
  for (int j = 0; j < cfg_.nlat; ++j) {
    const double lat = -90.0 + (j + 0.5) * 180.0 / cfg_.nlat;
    for (int i = 0; i < cfg_.nlon; ++i) {
      forcing_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          mask_.ocean(i, j) ? 1e-11 * std::sin(2.0 * lat * M_PI / 180.0) : 0.0;
    }
  }
  steps_ = 0;
  sor_residual_ = 0;
}

namespace {

/// Rows of one SOR wave updated side by side (see sor_sweeps).
constexpr int kWaveRows = 4;

/// One sweep of the M rows of a wave, walked along i in lockstep; `row[k]`
/// is the flat offset of row k's first point. Row k+1 lies two rows below
/// row k, so the row between them is row k's south neighbour and row k+1's
/// north one: each i loads the M+1 neighbour rows once, from `north` (row
/// 0's north neighbour) down in steps of two rows. `left[k]` holds the
/// value at i-1 that row k's update at i reads: the old value at nlon-1
/// for i = 0, then each point's new value, kept in a register. The update
/// is the row-by-row loop's expression in its operation order. Kept out
/// of line: inlined into the wave loop, the solve ran about 10% slower
/// (g++ 12, -O3).
template <std::size_t M>
[[gnu::noinline]] void sor_rows(double* psi, const double* forcing,
                                const int* ocean, std::size_t n,
                                const std::array<std::size_t, M>& row,
                                double w) {
  const double* north = psi + row[0] + n;
  const auto two_rows = 2 * static_cast<std::ptrdiff_t>(n);
  double left[M];
  for (std::size_t k = 0; k < M; ++k) left[k] = psi[row[k] + n - 1];
  const auto point = [&](std::size_t i, std::size_t ip) {
    double between[M + 1];
    for (std::size_t k = 0; k <= M; ++k) {
      between[k] = north[static_cast<std::ptrdiff_t>(i) -
                         two_rows * static_cast<std::ptrdiff_t>(k)];
    }
    for (std::size_t k = 0; k < M; ++k) {
      const std::size_t at = row[k] + i;
      const double old = psi[at];
      const double nbr =
          ((left[k] + psi[row[k] + ip]) + between[k + 1]) + between[k];
      const double gs = 0.25 * (nbr - forcing[at]);
      if (ocean[at] != 0) {
        const double next = (1.0 - w) * old + w * gs;
        psi[at] = next;
        left[k] = next;
      } else {
        left[k] = old;
      }
    }
  };
  for (std::size_t i = 0; i + 1 < n; ++i) point(i, i + 1);
  point(n - 1, 0);  // the wrap reads the new value at i = 0
}

}  // namespace

void sor_sweeps(Array2D<double>& psi, const Array2D<double>& forcing,
                const Array2D<int>& ocean, int sweeps, double omega) {
  NCAR_REQUIRE(forcing.ni() == psi.ni() && forcing.nj() == psi.nj() &&
                   ocean.ni() == psi.ni() && ocean.nj() == psi.nj(),
               "SOR fields must share one grid");
  const std::size_t n = psi.ni();
  const int rows = static_cast<int>(psi.nj()) - 2;
  if (n == 0 || rows <= 0 || sweeps <= 0) return;
  double* p = psi.flat().data();
  const double* f = forcing.flat().data();
  const int* o = ocean.flat().data();
  // Interior row J = j - 1 at sweep t runs in wave tau = J + 2t. The rows
  // of one wave are two apart and read only rows of other waves, so each
  // group of kWaveRows of them runs in lockstep.
  const int waves = rows + 2 * (sweeps - 1);
  for (int tau = 0; tau < waves; ++tau) {
    const int t_first = std::max(0, (tau - rows + 2) / 2);
    const int t_last = std::min(sweeps - 1, tau / 2);
    for (int t = t_first; t <= t_last; t += kWaveRows) {
      const auto r = [&](int k) {  // row J = tau - 2(t + k), so j = J + 1
        return static_cast<std::size_t>(tau - 2 * (t + k) + 1) * n;
      };
      static_assert(kWaveRows == 4, "one case per group width");
      switch (std::min(kWaveRows, t_last - t + 1)) {
        case 4:
          sor_rows<4>(p, f, o, n, {r(0), r(1), r(2), r(3)}, omega);
          break;
        case 3:
          sor_rows<3>(p, f, o, n, {r(0), r(1), r(2)}, omega);
          break;
        case 2:
          sor_rows<2>(p, f, o, n, {r(0), r(1)}, omega);
          break;
        default:
          sor_rows<1>(p, f, o, n, {r(0)}, omega);
          break;
      }
    }
  }
}

void Mom::solve_barotropic() {
  // Gauss-Seidel SOR for del^2 psi = forcing, psi = 0 on land, periodic in
  // longitude, five-point stencil on the (unit-spaced) grid.
  const int nlon = cfg_.nlon, nlat = cfg_.nlat;
  sor_sweeps(psi_, forcing_, mask_.grid(), cfg_.sor_iters, cfg_.sor_omega);
  // Residual check.
  double res = 0;
  for (int j = 1; j < nlat - 1; ++j) {
    for (int i = 0; i < nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      const int im = (i + nlon - 1) % nlon, ip = (i + 1) % nlon;
      const std::size_t jj = static_cast<std::size_t>(j);
      const double lap = psi_(static_cast<std::size_t>(im), jj) +
                         psi_(static_cast<std::size_t>(ip), jj) +
                         psi_(static_cast<std::size_t>(i), jj - 1) +
                         psi_(static_cast<std::size_t>(i), jj + 1) -
                         4.0 * psi_(static_cast<std::size_t>(i), jj);
      res = std::max(res, std::abs(lap - forcing_(static_cast<std::size_t>(i), jj)));
    }
  }
  sor_residual_ = res;

  // Barotropic velocities from the streamfunction (masked central diffs).
  for (int j = 1; j < nlat - 1; ++j) {
    for (int i = 0; i < nlon; ++i) {
      const std::size_t jj = static_cast<std::size_t>(j);
      if (!mask_.ocean(i, j)) {
        u_(static_cast<std::size_t>(i), jj) = 0;
        v_(static_cast<std::size_t>(i), jj) = 0;
        continue;
      }
      const int im = (i + nlon - 1) % nlon, ip = (i + 1) % nlon;
      u_(static_cast<std::size_t>(i), jj) =
          -0.5 * (psi_(static_cast<std::size_t>(i), jj + 1) -
                  psi_(static_cast<std::size_t>(i), jj - 1)) * 1e4;
      v_(static_cast<std::size_t>(i), jj) =
          0.5 * (psi_(static_cast<std::size_t>(ip), jj) -
                 psi_(static_cast<std::size_t>(im), jj)) * 1e4;
    }
  }
}

void Mom::baroclinic_step() {
  const int nlon = cfg_.nlon, nlat = cfg_.nlat, nlev = cfg_.nlev;
  const double kappa = 0.05;  // grid-units diffusivity * dt
  const double adv = 0.2;     // CFL-safe advection coefficient
  const simd::KernelTable& kt = simd::table();
  const auto n = static_cast<std::size_t>(nlon);
  const std::size_t row_bytes = (n - 1) * sizeof(double);
  // Interior rows j = 1 .. nlat-2 are split over the lanes of the node's
  // host pool: lane blocks cover row indices [lo, hi) = j - 1. Every loop
  // below writes only its own rows, and each column keeps its ascending-k
  // order, so the state is bit-identical for every lane count.
  ThreadPool* pool = node_->host_pool();
  lane_rows_.fit(pool);
  const int rows = nlat - 2;

  for (auto* field : {&temp_, &salt_}) {
    auto& f = *field;
    // The stencil reads the j +- 1 rows of f, so every lane finishes it
    // before any lane commits.
    parallel_blocks(pool, rows, [&](int lane, int lo, int hi) {
      Arena& arena = lane_rows_[lane];
      ArenaScope frame(arena);
      double* sip = arena.take<double>(n).data();
      double* sim = arena.take<double>(n).data();
      double* aip = arena.take<double>(n).data();
      double* aim = arena.take<double>(n).data();
      double* ajp = arena.take<double>(n).data();
      double* ajm = arena.take<double>(n).data();
      double* uu = arena.take<double>(n).data();
      double* vv = arena.take<double>(n).data();
      for (int k = 0; k < nlev; ++k) {
        const double depth_damp = std::exp(-2.0 * k / nlev);
        const std::size_t kk = static_cast<std::size_t>(k);
        for (int j = lo + 1; j < hi + 1; ++j) {
          const std::size_t jj = static_cast<std::size_t>(j);
          const double* fc = &f(0, jj, kk);
          // Periodic i-shifts of the row, then coastline no-flux selects:
          // a land neighbour contributes the centre value instead.
          std::memcpy(sip, fc + 1, row_bytes);
          sip[n - 1] = fc[0];
          sim[0] = fc[n - 1];
          std::memcpy(sim + 1, fc, row_bytes);
          kt.select_d(&mask_ip_(0, jj), sip, fc, aip, nlon);
          kt.select_d(&mask_im_(0, jj), sim, fc, aim, nlon);
          kt.select_d(&mask_jp_(0, jj), &f(0, jj + 1, kk), fc, ajp, nlon);
          kt.select_d(&mask_jm_(0, jj), &f(0, jj - 1, kk), fc, ajm, nlon);
          kt.scale_d(&u_(0, jj), depth_damp, uu, nlon);
          kt.scale_d(&v_(0, jj), depth_damp, vv, nlon);
          double* srow = &scratch_(0, jj, kk);
          kt.mom_stencil_d(fc, aip, aim, ajp, ajm, uu, vv, adv, kappa, srow,
                           nlon);
          kt.select_d(&mask_c_(0, jj), srow, zeros_.data(), srow, nlon);
        }
      }
    });
    parallel_blocks(pool, rows, [&](int, int lo, int hi) {
      for (int k = 0; k < nlev; ++k) {
        const std::size_t kk = static_cast<std::size_t>(k);
        for (int j = lo + 1; j < hi + 1; ++j) {
          const std::size_t jj = static_cast<std::size_t>(j);
          kt.select_d(&mask_c_(0, jj), &scratch_(0, jj, kk), &f(0, jj, kk),
                      &f(0, jj, kk), nlon);
        }
      }
    });
  }
  // Convective adjustment on temperature columns (the unvectorised column
  // loop): mix statically unstable neighbours (deeper water must not be
  // warmer). Columns are independent and each column still sees its
  // k-cascade in ascending order, so running the level pair across whole
  // rows reorders nothing; land columns are identically zero, so the
  // lower > upper test never fires there.
  parallel_blocks(pool, rows, [&](int, int lo, int hi) {
    for (int k = 0; k + 1 < nlev; ++k) {
      const std::size_t kk = static_cast<std::size_t>(k);
      for (int j = lo + 1; j < hi + 1; ++j) {
        const std::size_t jj = static_cast<std::size_t>(j);
        kt.mix_unstable_d(&temp_(0, jj, kk), &temp_(0, jj, kk + 1), nlon);
      }
    }
  });
}

void Mom::compute_diagnostics() {
  double sum_t = 0, ke = 0;
  long n = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      const std::size_t ii = static_cast<std::size_t>(i);
      const std::size_t jj = static_cast<std::size_t>(j);
      ke += 0.5 * (u_(ii, jj) * u_(ii, jj) + v_(ii, jj) * v_(ii, jj));
      for (int k = 0; k < cfg_.nlev; ++k) {
        sum_t += temp_(ii, jj, static_cast<std::size_t>(k));
        ++n;
      }
    }
  }
  diag_mean_t_ = n > 0 ? sum_t / static_cast<double>(n) : 0.0;
  diag_ke_ = ke;
}

double Mom::step(int ncpu) {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= node_->cpu_count(), "processor count");

  // ---- numerics -----------------------------------------------------------
  solve_barotropic();
  baroclinic_step();
  if ((steps_ + 1) % cfg_.diag_every == 0) compute_diagnostics();

  // ---- timing -------------------------------------------------------------
  const double elapsed = charge_step(ncpu, steps_);
  ++steps_;
  return elapsed;
}

double Mom::charge_step(int ncpu, long step_index) const {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= node_->cpu_count(), "processor count");
  const int nlat = cfg_.nlat, nlev = cfg_.nlev;
  double elapsed = 0;

  // ---- timing: rigid-lid SOR — one parallel sweep + barrier per iteration.
  for (int it = 0; it < cfg_.sor_iters; ++it) {
    elapsed += node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
      const int lo = static_cast<int>(static_cast<long>(nlat) * rank / ncpu);
      const int hi = static_cast<int>(static_cast<long>(nlat) * (rank + 1) / ncpu);
      for (int j = lo; j < hi; ++j) {
        const int pts = mask_.ocean_in_row(j);
        if (pts == 0) continue;
        sxs::VectorOp op;
        op.n = pts;
        op.flops_per_elem = 7.0;
        op.load_words = 5.0;
        op.gather_words = 1.0;  // masked compression
        op.store_words = 1.0;
        op.pipe_groups = 2;
        cpu.vec(op);
      }
    });
  }

  // ---- timing: baroclinic region, block-decomposed over latitude --------
  elapsed += node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    const int lo = static_cast<int>(static_cast<long>(nlat) * rank / ncpu);
    const int hi = static_cast<int>(static_cast<long>(nlat) * (rank + 1) / ncpu);
    for (int j = lo; j < hi; ++j) {
      const int pts = mask_.ocean_in_row(j);
      if (pts == 0) continue;
      // Vectorised finite-difference passes.
      sxs::VectorOp op;
      op.n = pts;
      op.flops_per_elem = cfg_.vec_flops;
      op.load_words = cfg_.vec_loads;
      op.load_stride = 3;
      op.gather_words = cfg_.vec_gather;
      op.store_words = cfg_.vec_stores;
      op.pipe_groups = 2;
      cpu.vec(op, static_cast<long>(nlev) * cfg_.vec_passes);
      // Unvectorised EOS / convective adjustment / implicit mixing.
      sxs::ScalarOp sc;
      sc.iters = static_cast<long>(pts) * nlev;
      sc.flops_per_iter = cfg_.sc_flops;
      sc.mem_words_per_iter = cfg_.sc_mem;
      sc.other_ops_per_iter = cfg_.sc_other;
      sc.working_set_bytes = static_cast<double>(pts) * nlev * 8.0;
      sc.reuse_fraction = 0.2;
      cpu.scalar(sc);
    }
  });

  // ---- timing: serial diagnostics every diag_every steps ----------------
  if ((step_index + 1) % cfg_.diag_every == 0) {
    elapsed += node_->serial([&](sxs::Cpu& cpu) {
      sxs::ScalarOp d;
      d.iters = mask_.ocean_total() * static_cast<long>(nlev) * cfg_.diag_passes;
      d.flops_per_iter = cfg_.diag_flops;
      d.mem_words_per_iter = cfg_.diag_mem;
      d.other_ops_per_iter = cfg_.diag_other;
      d.reuse_fraction = 0.0;
      cpu.scalar(d);
    });
  }

  return elapsed;
}

double Mom::mean_temperature() const {
  double sum = 0;
  long n = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      for (int k = 0; k < cfg_.nlev; ++k) {
        sum += temp_(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                     static_cast<std::size_t>(k));
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Mom::mean_salinity() const {
  double sum = 0;
  long n = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      for (int k = 0; k < cfg_.nlev; ++k) {
        sum += salt_(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                     static_cast<std::size_t>(k));
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Mom::barotropic_ke() const {
  double ke = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      const std::size_t jj = static_cast<std::size_t>(j);
      ke += 0.5 * (u_(ii, jj) * u_(ii, jj) + v_(ii, jj) * v_(ii, jj));
    }
  }
  return ke;
}

double Mom::last_sor_residual() const { return sor_residual_; }

bool Mom::columns_statically_stable() const {
  for (int j = 1; j < cfg_.nlat - 1; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      for (int k = 0; k + 1 < cfg_.nlev; ++k) {
        const double upper = temp_(static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(j),
                                   static_cast<std::size_t>(k));
        const double lower = temp_(static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(j),
                                   static_cast<std::size_t>(k + 1));
        if (lower > upper + 1e-12) return false;
      }
    }
  }
  return true;
}

double Mom::checksum() const {
  double c = 0;
  for (double v : temp_.flat()) c += v;
  for (double v : salt_.flat()) c += 0.1 * v;
  for (double v : psi_.flat()) c += v;
  return c;
}

std::vector<double> Mom::checkpoint() const {
  std::vector<double> out;
  out.push_back(static_cast<double>(steps_));
  out.insert(out.end(), temp_.flat().begin(), temp_.flat().end());
  out.insert(out.end(), salt_.flat().begin(), salt_.flat().end());
  out.insert(out.end(), psi_.flat().begin(), psi_.flat().end());
  out.insert(out.end(), u_.flat().begin(), u_.flat().end());
  out.insert(out.end(), v_.flat().begin(), v_.flat().end());
  return out;
}

void Mom::restore(const std::vector<double>& state) {
  const std::size_t expect =
      1 + 2 * temp_.size() + psi_.size() + u_.size() + v_.size();
  NCAR_REQUIRE(state.size() == expect,
               "checkpoint does not match this configuration");
  std::size_t pos = 0;
  steps_ = static_cast<long>(state[pos++]);
  for (auto& v : temp_.flat()) v = state[pos++];
  for (auto& v : salt_.flat()) v = state[pos++];
  for (auto& v : psi_.flat()) v = state[pos++];
  for (auto& v : u_.flat()) v = state[pos++];
  for (auto& v : v_.flat()) v = state[pos++];
}

double Mom::checkpoint_bytes() const {
  const std::size_t doubles =
      1 + 2 * temp_.size() + psi_.size() + u_.size() + v_.size();
  return 8.0 * static_cast<double>(doubles);
}

double Mom::measure_step_seconds(int ncpu, int nsteps) {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += step(ncpu);
  return total / nsteps;
}

double Mom::measure_charge_seconds(int ncpu, int nsteps) const {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += charge_step(ncpu, s);
  return total / nsteps;
}

}  // namespace ncar::ocean
