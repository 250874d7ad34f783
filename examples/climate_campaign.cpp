// Example: a small climate campaign — the workload the paper's
// introduction motivates ("long running, dedicated climate simulations").
//
// Runs a 5-day CCM2-like simulation at T42L18 on the full SX-4/32 model,
// writing daily history volumes through the disk subsystem, then reports
// physical diagnostics and the machine-model performance summary.

#include <cstdio>

#include "ccm2/model.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "iosim/disk.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

int main() try {
  using namespace ncar;
  std::printf("host execution: %s\n\n", sxs::host_execution_summary().c_str());

  const auto machine = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(machine);
  iosim::DiskSystem disk;

  ccm2::Ccm2Config cfg;
  cfg.res = ccm2::t42l18();
  ccm2::Ccm2 model(cfg, node);

  std::printf("machine : %s\n", machine.name.c_str());
  std::printf("model   : CCM2-like, %s (%d x %d x %d, dt=%.0f s)\n",
              cfg.res.name.c_str(), cfg.res.nlat, cfg.res.nlon, cfg.res.nlev,
              cfg.res.dt_seconds);

  const int days = 5;
  const int ncpu = 32;
  double compute_s = 0, io_s = 0;
  const double e0 = model.energy();
  const double q0 = model.moisture_mass(0);

  for (int day = 1; day <= days; ++day) {
    for (long s = 0; s < cfg.res.steps_per_day(); ++s) {
      compute_s += model.step(ncpu).total;
    }
    io_s += model.write_history(disk, ncpu).value();
    std::printf("day %d: energy %.4e, moisture %.6f, simulated so far %s\n",
                day, model.energy(), model.moisture_mass(0),
                format_duration(compute_s + io_s).c_str());
  }

  std::printf("\n--- campaign summary -------------------------------------\n");
  std::printf("compute time (simulated): %s\n",
              format_duration(compute_s).c_str());
  std::printf("history I/O  (simulated): %s for %.1f MB/day\n",
              format_duration(io_s).c_str(), model.history_bytes().value() / 1e6);
  double flops = 0;
  for (int r = 0; r < node.cpu_count(); ++r) {
    flops += node.cpu(r).equiv_flops().value();
  }
  std::printf("sustained: %.2f Cray-equivalent Gflops on %d CPUs\n",
              flops / compute_s / 1e9, ncpu);
  std::printf("energy drift: %+.3f%%, moisture drift: %+.3f%%\n",
              100 * (model.energy() / e0 - 1.0),
              100 * (model.moisture_mass(0) / q0 - 1.0));
  return 0;
} catch (const ncar::config_error& e) {
  // A bad SX4NCAR_* knob stops the run naming it, as in the bench mains.
  std::fprintf(stderr, "climate_campaign: %s\n", e.what());
  return 2;
}
