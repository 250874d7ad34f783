#include "ocean/mom.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ocean/mask.hpp"
#include "sxs/machine_config.hpp"
#include "support/fnv1a.hpp"

namespace {

using namespace ncar;

class MomTest : public ::testing::Test {
protected:
  MomTest() : node(sxs::MachineConfig::sx4_benchmarked()) {}
  sxs::Node node;
};

TEST_F(MomTest, LowResolutionConfigMatchesPaper) {
  // "The low resolution version has a nominal horizontal resolution of 3
  // degrees ... with 25 levels"; high resolution 1 degree, 45 levels.
  const auto lo = ocean::MomConfig::low_resolution();
  EXPECT_EQ(lo.nlon, 120);
  EXPECT_EQ(lo.nlev, 25);
  const auto hi = ocean::MomConfig::high_resolution();
  EXPECT_EQ(hi.nlon, 360);
  EXPECT_EQ(hi.nlat, 180);
  EXPECT_EQ(hi.nlev, 45);
}

TEST_F(MomTest, SorSolverConverges) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  mom.step(1);
  // 60 SOR sweeps on the coarse grid drive the residual well down from the
  // O(1e-11) forcing magnitude.
  EXPECT_LT(mom.last_sor_residual(), 1e-11);
  EXPECT_GT(mom.last_sor_residual(), 0.0);
}

TEST_F(MomTest, TemperatureStaysPhysicalOver40Steps) {
  // Paper: "A run of 40 timesteps ... is used for testing and verification".
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 40; ++s) mom.step(2);
  EXPECT_GT(mom.mean_temperature(), 0.0);
  EXPECT_LT(mom.mean_temperature(), 30.0);
  EXPECT_GT(mom.mean_salinity(), 33.0);
  EXPECT_LT(mom.mean_salinity(), 36.0);
}

TEST_F(MomTest, CirculationSpinsUpFromRest) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  EXPECT_DOUBLE_EQ(mom.barotropic_ke(), 0.0);
  mom.step(1);
  EXPECT_GT(mom.barotropic_ke(), 0.0);
}

TEST_F(MomTest, ConvectiveAdjustmentKeepsColumnsStable) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 10; ++s) mom.step(1);
  // After adjustment, no deeper cell may be warmer than the one above.
  EXPECT_TRUE(mom.columns_statically_stable());
}

TEST_F(MomTest, DeterministicAcrossCpuCounts) {
  ocean::Mom a(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 5; ++s) a.step(1);
  ocean::Mom b(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 5; ++s) b.step(16);
  EXPECT_DOUBLE_EQ(a.checksum(), b.checksum());
}

TEST_F(MomTest, DiagnosticsStepIsSlower) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  // Steps 1..9 have no diagnostics; step 10 does.
  double t9 = 0;
  for (int s = 0; s < 9; ++s) t9 = mom.step(1);
  const double t10 = mom.step(1);
  EXPECT_GT(t10, t9);
}

TEST_F(MomTest, SpeedupShapeMatchesTable7) {
  // The headline: modest scalability — speedup at 32 CPUs lands near 9,
  // far below ideal (paper Table 7).
  ocean::Mom mom(ocean::MomConfig::high_resolution(), node);
  node.reset();
  mom.reset();
  const double t1 = mom.measure_step_seconds(1, 10);
  node.reset();
  mom.reset();
  const double t32 = mom.measure_step_seconds(32, 10);
  const double speedup = t1 / t32;
  EXPECT_GT(speedup, 6.0);
  EXPECT_LT(speedup, 12.0);
}

// The memoized replay contract: MOM's charges depend only on the config,
// the immutable land mask, ncpu, and the step index's diagnostics parity —
// never on the prognostic fields — so replaying charges must reproduce the
// full step's timing and per-CPU accumulators bit for bit.
TEST_F(MomTest, ChargeReplayBitIdenticalToFullStep) {
  sxs::Node node_full(sxs::MachineConfig::sx4_benchmarked());
  sxs::Node node_replay(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom full(ocean::MomConfig::low_resolution(), node_full);
  ocean::Mom replay(ocean::MomConfig::low_resolution(), node_replay);
  // Span a diagnostics step so the parity-dependent serial charge is hit.
  const int nsteps = static_cast<int>(
      ocean::MomConfig::low_resolution().diag_every) + 2;
  for (int s = 0; s < nsteps; ++s) {
    const double a = full.step(4);
    const double b = replay.charge_step(4, s);
    EXPECT_EQ(a, b) << "step " << s;
  }
  EXPECT_EQ(node_full.elapsed_seconds(), node_replay.elapsed_seconds());
  for (int r = 0; r < node_full.cpu_count(); ++r) {
    EXPECT_EQ(node_full.cpu(r).cycles(), node_replay.cpu(r).cycles());
  }
}

// Reset returns the whole state, velocities included, to the one a freshly
// built model starts from.
TEST_F(MomTest, ResetRestoresState) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 3; ++s) mom.step(1);
  ASSERT_GT(mom.barotropic_ke(), 0.0);
  mom.reset();
  const std::vector<double> got = mom.checkpoint();
  const std::vector<double> fresh =
      ocean::Mom(ocean::MomConfig::low_resolution(), node).checkpoint();
  ASSERT_EQ(got.size(), fresh.size());
  EXPECT_EQ(std::memcmp(got.data(), fresh.data(), got.size() * sizeof(double)),
            0);
  EXPECT_EQ(mom.barotropic_ke(), 0.0);
}

// The full model state after three steps, pinned bit for bit: FNV-1a over
// the bytes of Mom::checkpoint() (step count, T, S, psi, u, v), computed
// with the row-by-row Gauss-Seidel loop the wavefront schedule replaced.
TEST_F(MomTest, CheckpointHashPinnedAcrossOmegas) {
  struct Case {
    bool high;
    double omega;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {false, 1.0, 0x2ad1c0f01c0ebf2full},
      {false, 1.5, 0x8a29ba8e14ddbc61ull},
      {false, 1.8, 0x3d5929e4a404429dull},
      {true, 1.0, 0xe150a66d0177e6c0ull},
      {true, 1.5, 0xd450cd17df3cab8dull},
      {true, 1.8, 0x88fc92bc51959de6ull},
  };
  for (const Case& c : cases) {
    auto cfg = c.high ? ocean::MomConfig::high_resolution()
                      : ocean::MomConfig::low_resolution();
    cfg.sor_omega = c.omega;
    ocean::Mom mom(cfg, node);
    for (int s = 0; s < 3; ++s) mom.step(4);
    const std::uint64_t h = test::fnv1a(mom.checkpoint());
    EXPECT_EQ(h, c.hash) << (c.high ? "high" : "low") << " omega " << c.omega
                         << " hash 0x" << std::hex << h;
  }
}

// The row-by-row Gauss-Seidel SOR that sor_sweeps reorders: rows in
// ascending j, points in ascending i, one sweep after another.
void reference_sor(Array2D<double>& psi, const Array2D<double>& forcing,
                   const Array2D<int>& ocean, int sweeps, double w) {
  const std::size_t nlon = psi.ni(), nlat = psi.nj();
  for (int it = 0; it < sweeps; ++it) {
    for (std::size_t j = 1; j + 1 < nlat; ++j) {
      for (std::size_t i = 0; i < nlon; ++i) {
        if (ocean(i, j) == 0) continue;
        const std::size_t im = (i + nlon - 1) % nlon, ip = (i + 1) % nlon;
        const double nbr =
            psi(im, j) + psi(ip, j) + psi(i, j - 1) + psi(i, j + 1);
        const double gs = 0.25 * (nbr - forcing(i, j));
        psi(i, j) = (1.0 - w) * psi(i, j) + w * gs;
      }
    }
  }
}

/// Deterministic fill in [lo, hi) from a splitmix64 stream.
void fill_uniform(Array2D<double>& a, std::uint64_t seed, double lo,
                  double hi) {
  for (double& v : a.flat()) {
    seed += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    v = lo + (hi - lo) * static_cast<double>(z >> 11) * 0x1.0p-53;
  }
}

/// sor_sweeps against reference_sor on the same inputs, compared bit for
/// bit at every point. `land` is the fraction of points masked out.
void expect_sor_matches_reference(std::size_t nlon, std::size_t nlat,
                                  int sweeps, double omega, double land) {
  SCOPED_TRACE(::testing::Message() << nlon << "x" << nlat << ", " << sweeps
                                    << " sweeps, omega " << omega
                                    << ", land " << land);
  Array2D<double> psi(nlon, nlat), forcing(nlon, nlat), draw(nlon, nlat);
  fill_uniform(psi, 1, -1.0, 1.0);
  fill_uniform(forcing, 2, -1e-2, 1e-2);
  fill_uniform(draw, 3, 0.0, 1.0);
  Array2D<int> ocean(nlon, nlat);
  for (std::size_t k = 0; k < ocean.size(); ++k) {
    ocean.flat()[k] = draw.flat()[k] < land ? 0 : 1;
  }
  Array2D<double> expect = psi;
  reference_sor(expect, forcing, ocean, sweeps, omega);
  ocean::sor_sweeps(psi, forcing, ocean, sweeps, omega);
  for (std::size_t j = 0; j < nlat; ++j) {
    for (std::size_t i = 0; i < nlon; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(psi(i, j)),
                std::bit_cast<std::uint64_t>(expect(i, j)))
          << "psi(" << i << ", " << j << ") = " << psi(i, j) << ", expected "
          << expect(i, j);
    }
  }
}

TEST(SorSweeps, BitIdenticalToRowByRowSweepOnEdgeShapes) {
  // nlat 3 has a single interior row; 37x23 makes wave widths that are not
  // multiples of the rows run in lockstep; nlon 1 and 2 fold the periodic
  // neighbours onto each other; 61 sweeps outnumber the 21 interior rows.
  const std::size_t shapes[][2] = {{8, 3},  {1, 3},  {2, 5},   {37, 23},
                                   {37, 4}, {5, 41}, {360, 180}};
  for (const auto& shape : shapes) {
    for (const int sweeps : {1, 2, 61}) {
      for (const double land : {0.0, 0.3, 0.8}) {
        expect_sor_matches_reference(shape[0], shape[1], sweeps, 1.7, land);
      }
    }
  }
  for (const double omega : {1.0, 1.5, 1.8}) {
    expect_sor_matches_reference(37, 23, 7, omega, 0.3);
  }
}

TEST(SorSweeps, BitIdenticalOnTheModelMask) {
  // The synthetic continents of the 37x23 model grid, not random land.
  const ocean::LandMask mask(37, 23);
  Array2D<double> psi(37, 23), forcing(37, 23);
  fill_uniform(psi, 4, -1.0, 1.0);
  fill_uniform(forcing, 5, -1e-2, 1e-2);
  for (const int sweeps : {1, 2, 61}) {
    Array2D<double> got = psi, expect = psi;
    reference_sor(expect, forcing, mask.grid(), sweeps, 1.7);
    ocean::sor_sweeps(got, forcing, mask.grid(), sweeps, 1.7);
    EXPECT_EQ(std::memcmp(got.flat().data(), expect.flat().data(),
                          got.size() * sizeof(double)),
              0)
        << sweeps << " sweeps";
  }
}

TEST(SorSweeps, NoInteriorRowsOrSweepsLeavePsiAlone) {
  Array2D<double> psi(9, 2), forcing(9, 2);
  const Array2D<int> ocean(9, 2, 1);
  fill_uniform(psi, 6, -1.0, 1.0);
  fill_uniform(forcing, 7, -1.0, 1.0);
  const Array2D<double> before = psi;
  ocean::sor_sweeps(psi, forcing, ocean, 5, 1.7);
  EXPECT_EQ(std::memcmp(psi.flat().data(), before.flat().data(),
                        psi.size() * sizeof(double)),
            0);
  Array2D<double> tall(9, 6);
  const Array2D<double> tall_before = tall;
  ocean::sor_sweeps(tall, Array2D<double>(9, 6, 1.0), Array2D<int>(9, 6, 1), 0,
                    1.7);
  EXPECT_EQ(std::memcmp(tall.flat().data(), tall_before.flat().data(),
                        tall.size() * sizeof(double)),
            0);
  EXPECT_THROW(ocean::sor_sweeps(psi, Array2D<double>(9, 3), ocean, 1, 1.7),
               ncar::precondition_error);
}

TEST_F(MomTest, InvalidArgsThrow) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  EXPECT_THROW(mom.step(0), ncar::precondition_error);
  EXPECT_THROW(mom.step(64), ncar::precondition_error);
  EXPECT_THROW(mom.measure_step_seconds(1, 0), ncar::precondition_error);
}

// Mom::reset splits the levels over the node's host pool. The state right
// after construction must be the same doubles with no pool and with every
// pool width, including widths that do not divide the level count, and the
// same as the serial point-by-point loop it replaced (hashes recorded
// there). The low-resolution model runs every width; the high-resolution
// one, 46 MB of T and S, only inline and on four lanes.
/// The checkpoint after `steps` steps of a model built on a node whose
/// host pool has `threads` threads; 0 runs the numerics inline.
std::vector<double> state_after(const ocean::MomConfig& cfg, int threads,
                                int steps) {
  sxs::Node n(sxs::MachineConfig::sx4_benchmarked());
  std::unique_ptr<ThreadPool> pool;
  if (threads == 0) {
    n.set_execution_policy(sxs::ExecutionPolicy::Sequential);
  } else {
    pool = std::make_unique<ThreadPool>(threads);
    n.set_execution_policy(sxs::ExecutionPolicy::Threaded);
    n.set_thread_pool(pool.get());
  }
  ocean::Mom mom(cfg, n);
  for (int s = 0; s < steps; ++s) mom.step(4);
  return mom.checkpoint();
}

void expect_initial_state(const ocean::MomConfig& cfg,
                          std::initializer_list<int> widths,
                          std::uint64_t hash) {
  const std::vector<double> ref = state_after(cfg, 0, 0);
  const std::uint64_t h = test::fnv1a(ref);
  EXPECT_EQ(h, hash) << "hash 0x" << std::hex << h;
  for (const int threads : widths) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::vector<double> state = state_after(cfg, threads, 0);
    ASSERT_EQ(state.size(), ref.size());
    EXPECT_EQ(std::memcmp(state.data(), ref.data(),
                          state.size() * sizeof(double)),
              0);
  }
}

TEST(MomLanes, ResetStateBitIdentical) {
  expect_initial_state(ocean::MomConfig::low_resolution(), {1, 2, 3, 4, 7},
                       0x613d44b6df895bf3ull);
}

// The baroclinic step commits each row as its lane computes it and reads
// the neighbouring lanes' old edge rows from halo copies. Three steps give
// the same doubles inline and at every pool width, widths that do not
// divide the 58 interior rows included. On an 8-row grid, 7 threads make
// six one-row lanes, so both neighbours of every row come from halos.
TEST(MomLanes, StepBitIdenticalForEveryPoolWidth) {
  auto narrow = ocean::MomConfig::low_resolution();
  narrow.nlat = 8;
  const struct {
    ocean::MomConfig cfg;
    std::vector<int> widths;
  } cases[] = {{ocean::MomConfig::low_resolution(), {1, 2, 3, 4, 7}},
               {narrow, {7}}};
  for (const auto& c : cases) {
    const std::vector<double> ref = state_after(c.cfg, 0, 3);
    for (const int threads : c.widths) {
      SCOPED_TRACE("nlat " + std::to_string(c.cfg.nlat) + ", threads " +
                   std::to_string(threads));
      const std::vector<double> state = state_after(c.cfg, threads, 3);
      ASSERT_EQ(state.size(), ref.size());
      EXPECT_EQ(std::memcmp(state.data(), ref.data(),
                            state.size() * sizeof(double)),
                0);
    }
  }
}

TEST(MomInitialState, HighResolutionHashPinned) {
  expect_initial_state(ocean::MomConfig::high_resolution(), {4},
                       0x8a9b98fc75d323e5ull);
}

}  // namespace
