#include "ccm2/model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sxs/ops.hpp"
#include "trace/category.hpp"

namespace ncar::ccm2 {

using spectral::cd;

Ccm2::Ccm2(const Ccm2Config& cfg, sxs::Node& node)
    : cfg_(cfg),
      node_(&node),
      sht_(cfg.res.truncation, cfg.res.nlat, cfg.res.nlon),
      slt_(sht_.nodes(), cfg.res.nlon, cfg.radius),
      fft_plan_(cfg.res.nlon),
      zg_(static_cast<std::size_t>(cfg.res.nlon), static_cast<std::size_t>(cfg.res.nlat)),
      zlam_(zg_.ni(), zg_.nj()),
      zmu_(zg_.ni(), zg_.nj()),
      plam_(zg_.ni(), zg_.nj()),
      pmu_(zg_.ni(), zg_.nj()),
      ug_(zg_.ni(), zg_.nj()),
      vg_(zg_.ni(), zg_.nj()),
      gg_(zg_.ni(), zg_.nj()),
      qn_(zg_.ni(), zg_.nj()) {
  NCAR_REQUIRE(cfg_.active_levels >= 1 && cfg_.active_levels <= cfg_.res.nlev,
               "active_levels must be in [1, nlev]");
  NCAR_REQUIRE(cfg_.radiation_col_stride >= 1, "radiation column stride");
  sht_.set_thread_pool(node.host_pool());
  reset();
}

void Ccm2::reset() {
  const int L = cfg_.active_levels;
  const auto& idx = sht_.index();
  zeta_.assign(static_cast<std::size_t>(L),
               std::vector<cd>(static_cast<std::size_t>(sht_.spec_size()),
                               cd(0, 0)));
  // Zonal jet: psi = -a U0 mu  =>  zeta = 2 U0 mu / a; mu = Pbar_1^0/sqrt(3).
  const cd jet(2.0 * cfg_.u0 / (cfg_.radius * std::sqrt(3.0)), 0.0);
  // Plus a Rossby-Haurwitz-like m=4 wave and a weak tail for realism.
  for (int l = 0; l < L; ++l) {
    auto& z = zeta_[static_cast<std::size_t>(l)];
    z[static_cast<std::size_t>(idx.at(0, 1))] = jet;
    const double amp = cfg_.wave_amplitude * (1.0 + 0.1 * l);
    if (sht_.truncation() >= 5) {
      z[static_cast<std::size_t>(idx.at(4, 5))] = cd(amp, 0.4 * amp);
    }
    if (sht_.truncation() >= 8) {
      z[static_cast<std::size_t>(idx.at(2, 6))] = cd(-0.3 * amp, 0.2 * amp);
      z[static_cast<std::size_t>(idx.at(6, 8))] = cd(0.15 * amp, -0.1 * amp);
    }
  }
  zeta_prev_ = zeta_;

  // Moisture: a positive zonally-varying blob, decaying with level; and a
  // realistic meridional temperature profile.
  q_.assign(static_cast<std::size_t>(L), Array2D<double>(zg_.ni(), zg_.nj()));
  temp_.assign(static_cast<std::size_t>(L),
               Array2D<double>(zg_.ni(), zg_.nj()));
  for (int l = 0; l < L; ++l) {
    for (std::size_t j = 0; j < zg_.nj(); ++j) {
      const double mu = sht_.nodes().mu[j];
      const double cphi = std::sqrt(1.0 - mu * mu);
      for (std::size_t i = 0; i < zg_.ni(); ++i) {
        const double lam =
            2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(zg_.ni());
        q_[static_cast<std::size_t>(l)](i, j) =
            0.010 * std::exp(-0.2 * l) * cphi *
            (1.0 + 0.5 * std::cos(lam) * cphi);
        temp_[static_cast<std::size_t>(l)](i, j) =
            250.0 + 35.0 * cphi * cphi - 4.0 * l;
      }
    }
  }

  tendency_.assign(static_cast<std::size_t>(L),
                   std::vector<cd>(static_cast<std::size_t>(sht_.spec_size())));
  psi_.assign(static_cast<std::size_t>(sht_.spec_size()), cd(0, 0));
  steps_ = 0;
}

void Ccm2::charge_transform_pass(sxs::Cpu& cpu, int passes, long repeats) const {
  // One Legendre pass over all m-columns, with every level fused into the
  // inner loop (flops and streams scale with nlev).
  const int t = sht_.truncation();
  const double f = static_cast<double>(cfg_.res.nlev);
  for (int m = 0; m <= t; ++m) {
    sxs::VectorOp op;
    op.n = t - m + 1;
    op.flops_per_elem = 4.0 * f;    // complex axpy per level
    // Fusing nlev levels of complex accumulators exceeds the vector
    // register file, so partial sums spill and refill: coefficient loads
    // plus Pbar plus spill traffic. This is what holds the Legendre
    // transform below peak on the real machine.
    op.load_words = 4.0 * f + 1.0;
    op.store_words = 3.3 * f;
    op.pipe_groups = 2;
    cpu.vec(op, repeats * passes);
  }
}

void Ccm2::charge_fft_set(sxs::Cpu& cpu, int instances, long repeats) const {
  // Multi-instance (VFFT-style) FFT over the longitude axis.
  for (int f : fft_plan_.factors()) {
    sxs::VectorOp op;
    op.n = instances;
    op.flops_per_elem = (f == 2) ? 5.0 : (f == 3) ? 16.0 : 38.0;
    op.load_words = static_cast<double>(f) + 1.0;  // legs + twiddles
    op.store_words = static_cast<double>(f) + 1.0;
    op.pipe_groups = 2;
    cpu.vec(op, repeats * (cfg_.res.nlon / f));
  }
}

StepTiming Ccm2::step(int ncpu) {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= node_->cpu_count(), "processor count");
  const int L = cfg_.active_levels;
  const int nlat = cfg_.res.nlat;
  const int nlon = cfg_.res.nlon;
  const int t = sht_.truncation();
  const double a = cfg_.radius;
  const double dt = cfg_.res.dt_seconds;
  const bool first = (steps_ == 0);
  // The transforms and the SLT split their rows over the node's host
  // pool; the grid, spectral-update and physics loops are cheap and stay
  // serial. Re-fitting allocates only if the node's pool changed.
  ThreadPool* pool = node_->host_pool();
  sht_.set_thread_pool(pool);

  // ---- numerics (host), per active level --------------------------------
  for (int l = 0; l < L; ++l) {
    auto& z = zeta_[static_cast<std::size_t>(l)];
    // psi = del^-2 zeta (local in spectral space). psi_ is pre-sized in
    // reset(); copy keeps the step allocation-free (sema-hot-alloc).
    std::copy(z.begin(), z.end(), psi_.begin());
    sht_.inverse_laplacian(psi_, a);
    // Synthesis: zeta, grad zeta, grad psi.
    sht_.synthesis(z, zg_);
    sht_.synthesis_gradient(z, zlam_, zmu_);
    sht_.synthesis_gradient(psi_, plam_, pmu_);
    // Grid-space winds and advective tendency.
    for (std::size_t j = 0; j < static_cast<std::size_t>(nlat); ++j) {
      const double mu = sht_.nodes().mu[j];
      const double cphi = std::sqrt(1.0 - mu * mu);
      const double inv_acos = 1.0 / (a * cphi);
      const double beta = 2.0 * cfg_.omega * cphi / a;
      for (std::size_t i = 0; i < static_cast<std::size_t>(nlon); ++i) {
        const double u = -pmu_(i, j) * inv_acos;
        const double v = plam_(i, j) * inv_acos;
        ug_(i, j) = u;
        vg_(i, j) = v;
        gg_(i, j) = -(u * zlam_(i, j) * inv_acos +
                      v * (zmu_(i, j) * inv_acos + beta));
      }
    }
    // Analysis of the tendency.
    sht_.analysis(gg_, tendency_[static_cast<std::size_t>(l)]);

    // Leapfrog + implicit del^4 + Robert-Asselin filter.
    const double step_dt = first ? dt : 2.0 * dt;
    const double lam_max =
        static_cast<double>(t) * (t + 1.0) / (a * a);
    const double k4 = 1.0 / (cfg_.hyperdiff_tau_s * lam_max * lam_max);
    auto& zp = zeta_prev_[static_cast<std::size_t>(l)];
    const auto& idx = sht_.index();
    for (int m = 0; m <= t; ++m) {
      for (int n = m; n <= t; ++n) {
        const std::size_t k = static_cast<std::size_t>(idx.at(m, n));
        const double lam_n = static_cast<double>(n) * (n + 1.0) / (a * a);
        const cd base = first ? z[k] : zp[k];
        const cd raw =
            (base + step_dt * tendency_[static_cast<std::size_t>(l)][k]) /
            (1.0 + step_dt * k4 * lam_n * lam_n);
        const cd filtered =
            z[k] + cfg_.asselin * (raw - 2.0 * z[k] + zp[k]);
        zp[k] = first ? z[k] : filtered;
        z[k] = raw;
      }
    }

    // Semi-Lagrangian moisture transport with the updated winds.
    slt_.advect(q_[static_cast<std::size_t>(l)], ug_, vg_, dt, qn_, pool);
    std::swap(q_[static_cast<std::size_t>(l)], qn_);

    // Column physics (sampled numerics): radiative heating with the RADABS
    // intrinsic mix, a crude condensation sink, and relaxation.
    auto& T = temp_[static_cast<std::size_t>(l)];
    auto& q = q_[static_cast<std::size_t>(l)];
    for (std::size_t j = 0; j < static_cast<std::size_t>(nlat); ++j) {
      for (std::size_t i = 0; i < static_cast<std::size_t>(nlon);
           i += static_cast<std::size_t>(cfg_.radiation_col_stride)) {
        const double path = q(i, j) * 80.0;
        const double heat = 1.2e-5 * (1.0 - std::exp(-8.0 * std::sqrt(path))) *
                            std::pow(T(i, j) / 250.0, 0.5);
        const double cool = 1.0e-5 * std::log(1.0 + 40.0 * q(i, j));
        T(i, j) += dt * (heat - cool) - dt * (T(i, j) - 250.0) * 1e-7;
        const double qsat =
            0.02 * std::exp(17.0 * (T(i, j) - 273.0) / (T(i, j) - 36.0));
        q(i, j) = std::min(q(i, j), qsat);
      }
    }
  }

  // ---- timing model: the macrotasked regions CCM2 runs per step ---------
  const StepTiming timing = charge_step(ncpu);
  ++steps_;
  return timing;
}

StepTiming Ccm2::charge_step(int ncpu) const {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= node_->cpu_count(), "processor count");
  const int nlev = cfg_.res.nlev;
  const int nlat = cfg_.res.nlat;
  const int nlon = cfg_.res.nlon;
  const int t = sht_.truncation();
  StepTiming timing;

  // Row/column decomposition for the charges.
  auto rows_of = [&](int rank) {
    const long lo = static_cast<long>(nlat) * rank / ncpu;
    const long hi = static_cast<long>(nlat) * (rank + 1) / ncpu;
    return hi - lo;
  };

  const double f = static_cast<double>(nlev);
  const int fields = cfg_.dynamics_fields;

  // Serial step-management section (see Ccm2Config::serial_overhead_s):
  // non-vectorised work on one CPU, so it is filed as scalar issue.
  timing.serial = node_->serial([&](sxs::Cpu& cpu) {
    cpu.charge_seconds(Seconds(cfg_.serial_overhead_s),
                       trace::Category::Scalar);
  });

  // Region 1 (m-parallel): spectral-local work — inverse Laplacian, time
  // update, hyperdiffusion — round-robin over m columns.
  timing.spectral_local = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    for (int m = rank; m <= t; m += ncpu) {
      sxs::VectorOp op;
      op.n = t - m + 1;
      op.flops_per_elem = 14.0 * f * fields;
      op.load_words = 4.0 * f * fields;
      op.store_words = 4.0 * f * fields;
      op.pipe_groups = 2;
      cpu.vec(op);
    }
  });

  // Region 2 (lat-parallel): Legendre synthesis of zeta plus the two
  // gradient pairs (5 passes) for every level, then the longitude FFTs.
  // Five Legendre passes per prognostic field: synthesis, the two
  // derivative passes, and the semi-implicit / wind-synthesis passes.
  const int synth_passes = 5 * fields;
  timing.synthesis = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    charge_transform_pass(cpu, synth_passes, rows_of(rank));
  });
  timing.ffts = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    charge_fft_set(cpu, synth_passes * nlev, rows_of(rank));
  });

  // Region 3 (lat-parallel): grid-space winds + nonlinear tendency.
  timing.grid = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    sxs::VectorOp op;
    op.n = nlon;
    op.flops_per_elem = 14.0;
    op.load_words = 6.0;
    op.store_words = 3.0;
    op.pipe_groups = 2;
    cpu.vec(op, rows_of(rank) * nlev * fields);
  });

  // Region 4 (lat-parallel then m-parallel): analysis FFTs + quadrature.
  // Three analysis passes per field (tendencies back to spectral space).
  const int anal_passes = 3 * fields;
  timing.analysis = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    charge_fft_set(cpu, anal_passes * nlev, rows_of(rank));
  });
  timing.analysis += node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    // Each CPU accumulates its m columns over every latitude.
    const int t_ = sht_.truncation();
    for (int m = rank; m <= t_; m += ncpu) {
      sxs::VectorOp op;
      op.n = t_ - m + 1;
      op.flops_per_elem = 4.0 * f;
      op.load_words = 4.0 * f + 1.0;  // see charge_transform_pass
      op.store_words = 3.3 * f;
      op.pipe_groups = 2;
      cpu.vec(op, static_cast<long>(nlat) * anal_passes);
    }
  });

  // Region 5 (lat-parallel): semi-Lagrangian transport — the "indirect
  // addressing on the Gaussian polar grid". Filed under SltInterp so the
  // interpolation shows up apart from the generic dynamics categories.
  timing.slt = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    sxs::VectorOp op;
    op.n = nlon;
    op.flops_per_elem = 28.0;
    op.gather_words = 4.0;   // the four bilinear corners
    op.load_words = 5.0;
    op.store_words = 1.0;
    op.pipe_groups = 2;
    cpu.vec(op, rows_of(rank) * nlev, trace::Category::SltInterp);
  });

  // Region 6 (lat-parallel): column physics. Radiation dominates, with the
  // RADABS intrinsic mix per column and level pair; charged for EVERY
  // column (numerics above sampled every radiation_col_stride columns).
  timing.physics = node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    const long rows = rows_of(rank);
    if (rows == 0) return;
    // Per latitude row: band absorptance over the level pairs refreshed
    // this step (the full O(nlev^2) RADABS table amortised over the
    // radiation cycle).
    const long pairs = cfg_.radiation_pairs_per_step;
    sxs::VectorOp body;
    body.n = nlon;
    body.flops_per_elem = 14.0;
    body.load_words = 3.0;
    body.store_words = 1.0;
    body.pipe_groups = 2;
    cpu.vec(body, rows * pairs);
    using sxs::Intrinsic;
    cpu.intrinsic(Intrinsic::Exp, nlon, 1, 1, 1.0, rows * pairs);
    cpu.intrinsic(Intrinsic::Sqrt, nlon, 1, 1, 1.0, rows * pairs);
    cpu.intrinsic(Intrinsic::Pow, nlon, 1, 1, 1.0, rows * pairs);
    cpu.intrinsic(Intrinsic::Log, nlon, 1, 1, 1.0, rows * pairs);
    // Remaining parameterisations: clouds, convection, PBL, surface
    // exchange — plain arithmetic plus a saturation exponential per level.
    sxs::VectorOp params;
    params.n = nlon;
    params.flops_per_elem = cfg_.physics_param_flops;
    params.load_words = cfg_.physics_param_flops / 4.0;
    params.store_words = cfg_.physics_param_flops / 8.0;
    cpu.vec(params, rows * nlev);
    cpu.intrinsic(Intrinsic::Exp, nlon, 1, 1, 1.0, rows * nlev * 2);
  });

  timing.total = timing.serial + timing.spectral_local + timing.synthesis +
                 timing.ffts + timing.grid + timing.analysis + timing.slt +
                 timing.physics;
  return timing;
}

double Ccm2::enstrophy() const {
  const auto& z = zeta_.front();
  const auto& idx = sht_.index();
  double e = 0;
  for (int m = 0; m <= sht_.truncation(); ++m) {
    const double w = (m == 0) ? 1.0 : 2.0;  // conjugate pair
    for (int n = m; n <= sht_.truncation(); ++n) {
      e += 0.5 * w * std::norm(z[static_cast<std::size_t>(idx.at(m, n))]);
    }
  }
  return e;
}

double Ccm2::energy() const {
  const auto& z = zeta_.front();
  const auto& idx = sht_.index();
  const double a2 = cfg_.radius * cfg_.radius;
  double e = 0;
  for (int m = 0; m <= sht_.truncation(); ++m) {
    const double w = (m == 0) ? 1.0 : 2.0;
    for (int n = std::max(m, 1); n <= sht_.truncation(); ++n) {
      const double lam = static_cast<double>(n) * (n + 1.0) / a2;
      e += 0.5 * w * std::norm(z[static_cast<std::size_t>(idx.at(m, n))]) / lam;
    }
  }
  return e;
}

double Ccm2::moisture_mass(int level) const {
  NCAR_REQUIRE(level >= 0 && level < cfg_.active_levels, "level");
  return slt_.mass(q_[static_cast<std::size_t>(level)]);
}

double Ccm2::checksum() const {
  double c = 0;
  for (const auto& z : zeta_) {
    for (const auto& v : z) c += v.real() + 0.5 * v.imag();
  }
  for (const auto& q : q_) {
    for (double v : q.flat()) c += v;
  }
  return c;
}

const Array2D<double>& Ccm2::moisture(int level) const {
  NCAR_REQUIRE(level >= 0 && level < cfg_.active_levels, "level");
  return q_[static_cast<std::size_t>(level)];
}

const Array2D<double>& Ccm2::temperature(int level) const {
  NCAR_REQUIRE(level >= 0 && level < cfg_.active_levels, "level");
  return temp_[static_cast<std::size_t>(level)];
}

double Ccm2::measure_step_seconds(int ncpu, int nsteps) {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += step(ncpu).total;
  return total / nsteps;
}

double Ccm2::sustained_equiv_gflops(int ncpu, int nsteps) {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double flops_before = 0;
  for (int r = 0; r < node_->cpu_count(); ++r) {
    flops_before += node_->cpu(r).equiv_flops().value();
  }
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += step(ncpu).total;
  double flops_after = 0;
  for (int r = 0; r < node_->cpu_count(); ++r) {
    flops_after += node_->cpu(r).equiv_flops().value();
  }
  return (flops_after - flops_before) / total / 1e9;
}

double Ccm2::measure_charge_seconds(int ncpu, int nsteps) const {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += charge_step(ncpu).total;
  return total / nsteps;
}

double Ccm2::charge_sustained_equiv_gflops(int ncpu, int nsteps) const {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double flops_before = 0;
  for (int r = 0; r < node_->cpu_count(); ++r) {
    flops_before += node_->cpu(r).equiv_flops().value();
  }
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += charge_step(ncpu).total;
  double flops_after = 0;
  for (int r = 0; r < node_->cpu_count(); ++r) {
    flops_after += node_->cpu(r).equiv_flops().value();
  }
  return (flops_after - flops_before) / total / 1e9;
}

std::vector<double> Ccm2::checkpoint() const {
  std::vector<double> out;
  out.push_back(static_cast<double>(steps_));
  for (const auto& z : zeta_) {
    for (const auto& v : z) {
      out.push_back(v.real());
      out.push_back(v.imag());
    }
  }
  for (const auto& z : zeta_prev_) {
    for (const auto& v : z) {
      out.push_back(v.real());
      out.push_back(v.imag());
    }
  }
  for (const auto& q : q_) {
    out.insert(out.end(), q.flat().begin(), q.flat().end());
  }
  for (const auto& t : temp_) {
    out.insert(out.end(), t.flat().begin(), t.flat().end());
  }
  return out;
}

void Ccm2::restore(const std::vector<double>& state) {
  const std::size_t spec = static_cast<std::size_t>(sht_.spec_size());
  const std::size_t L = static_cast<std::size_t>(cfg_.active_levels);
  const std::size_t grid = zg_.size();
  const std::size_t expect = 1 + 2 * 2 * spec * L + 2 * grid * L;
  NCAR_REQUIRE(state.size() == expect,
               "checkpoint does not match this configuration");
  std::size_t pos = 0;
  steps_ = static_cast<long>(state[pos++]);
  for (auto& z : zeta_) {
    for (auto& v : z) {
      v = cd(state[pos], state[pos + 1]);
      pos += 2;
    }
  }
  for (auto& z : zeta_prev_) {
    for (auto& v : z) {
      v = cd(state[pos], state[pos + 1]);
      pos += 2;
    }
  }
  for (auto& q : q_) {
    for (auto& v : q.flat()) v = state[pos++];
  }
  for (auto& t : temp_) {
    for (auto& v : t.flat()) v = state[pos++];
  }
}

double Ccm2::checkpoint_bytes() const {
  // A real NQS checkpoint writes every level of every prognostic field,
  // not only the actively-integrated ones.
  const double spec = static_cast<double>(sht_.spec_size());
  const double grid = static_cast<double>(zg_.size());
  const double nlev = static_cast<double>(cfg_.res.nlev);
  return 8.0 * nlev * (2.0 * 2.0 * spec + 2.0 * grid);
}

iosim::HistoryShape Ccm2::history_shape() const {
  iosim::HistoryShape s;
  s.nlon = cfg_.res.nlon;
  s.nlat = cfg_.res.nlat;
  s.nlev = cfg_.res.nlev;
  s.fields = cfg_.history_fields;
  return s;
}

Bytes Ccm2::history_bytes() const {
  return iosim::history_write_bytes(history_shape());
}

Seconds Ccm2::write_history(iosim::DiskSystem& disk, int writers) const {
  return iosim::write_history_seconds(disk, history_shape(), writers);
}

}  // namespace ncar::ccm2
