#pragma once
// The benchmark's four workloads. Each one builds its inputs from the seed,
// runs fixed-size rounds of work that the driver times, and verifies every
// round against the oracle (bench.hpp) outside the timed region.

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace ncar {
class ThreadPool;
}

namespace hostbench {

struct Context {
  const Options& opt;
  ncar::ThreadPool& pool;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Build the inputs; timed as setup_s. Replaces any earlier state.
  virtual void setup() = 0;
  /// True when every round needs a fresh setup (one replica per round).
  virtual bool setup_each_round() const { return false; }
  /// Timed set-ups per run (their median is setup_s) when not per round.
  virtual int setup_reps() const { return 5; }
  /// Untimed preparation before a round (state resets, visiting order).
  virtual void prepare() {}
  /// One timed round of fixed work; returns the units it completed.
  virtual double round() = 0;
  /// Untimed verification of the round just run.
  virtual void check() = 0;
  /// Layers whose spans the rounds record: the rows of the traced fold.
  virtual std::vector<std::string> layers() const = 0;
  /// Per-layer metrics of this workload, measured after a traced slice.
  virtual void probe(Metrics& out) = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx);

}  // namespace hostbench
