#pragma once
// MOM — rigid-lid finite-difference ocean model benchmark (paper 4.7.2).
//
// Based on the structure of GFDL MOM 1.1 as the NCAR benchmark configures
// it: rigid-lid Boussinesq primitive equations in latitude-longitude-depth
// coordinates, predicting temperature, salinity and velocity. The high
// resolution version is nominally 1 degree with 45 levels; the low
// resolution 3-degree / 25-level version exists "for familiarization and
// porting verification". The benchmark runs 350 timesteps and prints model
// diagnostics every 10 timesteps — which the paper names as one reason for
// the modest scalability (Table 7).
//
// The pieces that drive performance are all here and real:
//   * a barotropic streamfunction Poisson solve (SOR) on the masked grid —
//     the rigid-lid solver, synchronisation-heavy at high CPU counts;
//   * baroclinic advection-diffusion of T and S over the masked 3-D grid,
//     block-decomposed by latitude (load imbalance from the continents);
//   * unvectorised per-point work (equation of state, convective
//     adjustment, implicit vertical mixing) charged to the scalar unit —
//     "the algorithms and coding of the application";
//   * serial diagnostics every 10 steps.

#include "common/array.hpp"
#include "common/thread_pool.hpp"
#include "ocean/mask.hpp"
#include "sxs/node.hpp"

namespace ncar::ocean {

struct MomConfig {
  int nlon = 360;
  int nlat = 180;
  int nlev = 45;
  double dt_seconds = 3600.0;
  int diag_every = 10;   ///< the benchmark prints diagnostics every 10 steps
  int sor_iters = 60;    ///< rigid-lid SOR iterations per step
  double sor_omega = 1.7;

  // --- cost model (per ocean point per step), calibrated to Table 7 -------
  int vec_passes = 17;          ///< vectorised FD passes over the 3-D grid
  double vec_flops = 8.0;       ///< per point per pass
  double vec_loads = 5.0;
  double vec_gather = 1.0;      ///< masked compression list-vectors
  double vec_stores = 1.0;
  double sc_flops = 90.0;       ///< unvectorised EOS / convection / mixing
  double sc_mem = 90.0;
  double sc_other = 211.0;
  double diag_flops = 14.0;     ///< serial diagnostics, per 3-D point
  double diag_mem = 20.0;
  double diag_other = 34.0;
  int diag_passes = 2;

  /// The benchmark configuration: nominal 1 degree, 45 levels.
  static MomConfig high_resolution();
  /// The porting/verification configuration: 3 degrees, 25 levels.
  static MomConfig low_resolution();
};

/// `sweeps` Gauss-Seidel SOR sweeps of the rigid-lid Poisson problem
/// del^2 psi = forcing on the interior rows j = 1 .. nj-2 of `psi`: five-
/// point stencil on the unit grid, periodic in i, points where `ocean` is 0
/// (land) left as they are, rows 0 and nj-1 fixed. The result is bit-identical to
/// sweeping rows in ascending j and points in ascending i, sweep after
/// sweep. Point (i, j) of sweep t reads the sweep-t values at (i-1, j) and
/// (i, j-1) and the sweep-(t-1) values at (i+1, j) and (i, j+1); the wrap
/// reads the old (nlon-1, j) at i = 0 and the new (0, j) at i = nlon-1.
/// Giving interior row J = j-1 at sweep t the wave J + 2t honours all of
/// that: a row's three producers run in earlier waves, and rows j+1 of
/// sweep t and j-1 of sweep t+1, which both read row j's sweep-t values,
/// run in the wave between row j's sweeps t and t+1. Rows of one wave read
/// no row the wave writes, so they advance side by side as independent
/// dependency chains; each point still sees the same inputs and the same
/// operations, in the same order. Allocates nothing.
void sor_sweeps(Array2D<double>& psi, const Array2D<double>& forcing,
                const Array2D<int>& ocean, int sweeps, double omega);

class Mom {
public:
  Mom(const MomConfig& cfg, sxs::Node& node);

  const MomConfig& config() const { return cfg_; }
  const LandMask& mask() const { return mask_; }

  void reset();

  /// One timestep on `ncpu` processors; returns simulated seconds
  /// (diagnostics included on every diag_every-th step).
  double step(int ncpu);

  /// Charge one step's timing model without advancing the ocean state.
  /// MOM's charges depend only on the configuration, the (immutable) land
  /// mask, `ncpu`, and the step index parity for the every-diag_every-steps
  /// serial diagnostics — so from the same node state this issues exactly
  /// the charge sequence step() at `step_index` would, returning the
  /// bit-identical simulated seconds.
  double charge_step(int ncpu, long step_index) const;

  long steps_taken() const { return steps_; }

  // --- physical diagnostics ------------------------------------------------
  double mean_temperature() const;
  double mean_salinity() const;
  double barotropic_ke() const;      ///< kinetic energy proxy of psi flow
  double last_sor_residual() const;  ///< max |residual| after the solve
  /// True when no ocean column has deeper water warmer than shallower
  /// water (convective adjustment invariant).
  bool columns_statically_stable() const;
  double checksum() const;

  /// Average simulated seconds per step over `nsteps` fresh steps (the
  /// every-10-steps diagnostics pattern should divide nsteps).
  double measure_step_seconds(int ncpu, int nsteps = 10);
  /// Charge-replay variant of measure_step_seconds: same simulated numbers
  /// (see charge_step), without running the host-side numerics.
  double measure_charge_seconds(int ncpu, int nsteps = 10) const;

  // --- checkpoint / restart (paper section 2.6.2) --------------------------
  std::vector<double> checkpoint() const;
  void restore(const std::vector<double>& state);
  double checkpoint_bytes() const;

private:
  /// The rigid-lid solve: sor_sweeps (wavefront-ordered, bit-identical to
  /// the row-by-row sweep), then the residual and barotropic velocities.
  void solve_barotropic();
  void baroclinic_step();
  void compute_diagnostics();

  MomConfig cfg_;
  sxs::Node* node_;
  LandMask mask_;
  Array3D<double> temp_, salt_;
  Array2D<double> psi_, forcing_, u_, v_;
  Array3D<double> scratch_;
  // Precomputed 0/1 neighbour masks (centre, i+1, i-1, j+1, j-1) and,
  // per lane of the node's host pool, eight rows of workspace for the
  // vectorised baroclinic stencil — sized in the constructor so
  // baroclinic_step allocates only if the node's pool grows.
  Array2D<double> mask_c_, mask_ip_, mask_im_, mask_jp_, mask_jm_;
  LaneArenas lane_rows_;
  std::vector<double> zeros_;
  double sor_residual_ = 0;
  double diag_mean_t_ = 0, diag_ke_ = 0;
  long steps_ = 0;
};

}  // namespace ncar::ocean
