#pragma once
// design_sweep's per-point report as a Json value, written next to the
// result file with the same writer and layout (Json::save).
//
// Everything in it is a pure function of the sweep's simulated results:
// insertion-ordered keys and shortest round-trip numbers make it
// byte-identical across host-thread policies and repeat runs. The one
// host-dependent gauge, SweepReport::peak_live_workspaces, is left out.

#include "harness/json.hpp"
#include "machines/sweep.hpp"

namespace ncar::bench {

/// {kernel, base, axes, grid_size, valid_points, memory_bound_points,
///  compute_bound_points, flip_edges, cost_cache, fastest (when a valid
///  point exists), flips, points}. An invalid point carries its lowering
///  error instead of timings, so the grid stays rectangular.
Json sweep_report_json(const machines::SweepReport& report);

}  // namespace ncar::bench
