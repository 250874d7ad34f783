// Example: spinning up the MOM ocean model at the porting/verification
// resolution (3 degrees, 25 levels — the configuration the paper says "can
// be used for purposes of familiarization and porting verification", ~40
// timesteps), while watching the rigid-lid solver and the physics.

#include <cstdio>

#include "common/error.hpp"
#include "common/units.hpp"
#include "ocean/mom.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main() try {
  using namespace ncar;
  std::printf("host execution: %s\n\n", sxs::host_execution_summary().c_str());

  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);

  std::printf("MOM low resolution: %d x %d x %d, %.0f%% ocean\n",
              mom.config().nlon, mom.config().nlat, mom.config().nlev,
              100 * mom.mask().ocean_fraction());
  std::printf("block imbalance at 16 CPUs: %.2f\n\n",
              mom.mask().block_imbalance(16));

  const int ncpu = 16;
  double elapsed = 0;
  for (int s = 1; s <= 40; ++s) {
    elapsed += mom.step(ncpu);
    if (s % 10 == 0) {
      std::printf("step %2d: mean T %.3f C, S %.3f psu, KE %.3e, "
                  "SOR residual %.2e, columns stable: %s\n",
                  s, mom.mean_temperature(), mom.mean_salinity(),
                  mom.barotropic_ke(), mom.last_sor_residual(),
                  mom.columns_statically_stable() ? "yes" : "NO");
    }
  }

  std::printf("\n40 steps on %d CPUs: %s simulated "
              "(the paper: 'a few minutes of CPU time on a fast workstation')\n",
              ncpu, format_duration(elapsed).c_str());
  return 0;
} catch (const ncar::config_error& e) {
  // A bad SX4NCAR_* knob stops the run naming it, as in the bench mains.
  std::fprintf(stderr, "ocean_spinup: %s\n", e.what());
  return 2;
}
