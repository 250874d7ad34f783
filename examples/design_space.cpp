// Example: design-space exploration over the machine catalog. Three acts:
//
//  1. Print the builtin catalog — every machine the library knows is a
//     plain-text description table (edit one line, get a new machine).
//  2. Rank the whole catalog (1996 fleet + the modern SX-Aurora / A64FX /
//     RVV design points) on a recorded RADABS probe.
//  3. Sweep pipes x port width around the SX-4/1 and show where the
//     kernel flips from memory-bound to compute-bound — the boundary the
//     paper's Table 1 samples at exactly five machines.

#include <cstdio>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/table.hpp"
#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "sxs/execution_policy.hpp"

int main() try {
  using namespace ncar;
  std::cout << "host execution: " << sxs::host_execution_summary()
            << "\n\n";

  // Act 1: machines are data.
  const machines::Catalog& catalog = machines::builtin_catalog();
  print_banner(std::cout, "The machine catalog (descriptions, not code)");
  std::cout << catalog.find("NEC SX-4/1")->to_table()
            << "\n(unset keys inherit the SX-4 product defaults; "
            << catalog.machines.size() << " machines in the catalog)\n\n";

  // Act 2: one recorded probe, replayed against every catalog machine. The
  // sweep in act 3 replays this same recording.
  const machines::Probe& probe = machines::record_probe("radabs");
  print_banner(std::cout, "The catalog on the RADABS probe");
  Table rank({"Machine", "Seconds", "HW Mflops"});
  for (const std::string& name : machines::builtin_names()) {
    const machines::Replay r =
        machines::replay_probe(probe, machines::spec_for(name));
    rank.add_row({name, machines::format_number(r.seconds),
                  std::to_string(static_cast<long>(
                      r.seconds > 0 ? r.hw_flops / r.seconds / 1e6 : 0))});
  }
  rank.print(std::cout);

  // Act 3: a small sweep around the SX-4/1, printed as a bound-class map.
  const machines::Grid grid(catalog.at("NEC SX-4/1"),
                            {{"pipes_per_group", {1, 2, 4, 8, 16, 32}},
                             {"port_bytes_per_clock", {16, 32, 64, 128, 256}}});
  machines::SweepOptions opts;
  opts.kernel = "radabs";
  const machines::SweepReport rep = machines::run_sweep(grid, opts);

  std::printf("\n");
  print_banner(std::cout, "Memory-bound (M) vs compute-bound (C) map");
  std::printf("%24s", "port bytes/clock:");
  for (const double port : grid.axes()[1].values) {
    std::printf(" %5.0f", port);
  }
  std::printf("\n");
  for (std::size_t p = 0; p < grid.axes()[0].values.size(); ++p) {
    std::printf("%18s %4.0f ", "pipes:", grid.axes()[0].values[p]);
    for (std::size_t w = 0; w < grid.axes()[1].values.size(); ++w) {
      const auto& point =
          rep.points[p + w * grid.axes()[0].values.size()];
      std::printf(" %5s",
                  !point.valid ? "-" : point.memory_bound ? "M" : "C");
    }
    std::printf("\n");
  }
  std::printf(
      "\n%zu of %zu points memory-bound, %zu flip edges — widen the port "
      "or add pipes and the bound class changes.\n",
      rep.memory_bound_count(), rep.valid_count(), rep.flips.size());
  return 0;
} catch (const ncar::config_error& e) {
  // A bad SX4NCAR_* knob stops the run naming it, as in the bench mains.
  std::fprintf(stderr, "design_space: %s\n", e.what());
  return 2;
}
