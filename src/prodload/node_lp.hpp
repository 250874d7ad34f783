#pragma once
// The PRODLOAD node as a DES logical process.
//
// This is the port of the old Scheduler drain-clock loop onto the event
// calendar (src/des/): the node holds a set of running components that
// progress fluidly at 1/contention(active CPUs), a strict-FIFO admission
// queue, and ONE armed calendar event — the next component completion.
// Any change to the active set (completion, admission, a new arrival from
// the year-scale workload generator) re-arms that event.
//
// Bit-identity contract: when every component is submitted at t=0 and no
// foreign events interleave (the Scheduler::run case, i.e. the committed
// PRODLOAD baselines), the sequence of (factor, dt, remaining) updates is
// arithmetic-for-arithmetic the old loop:
//
//   factor = 1 + c * max(0, used - 1)
//   dt     = min over running of remaining * factor     (same scan order)
//   now    = now + dt                                   (the event's time)
//   each remaining -= dt / factor; retire <= 1e-12      (same epsilon)
//
// The armed dt is *stored* with the event and replayed in its handler —
// never re-derived from event times — so (now + dt) - now rounding can
// never leak into the remaining-time bookkeeping.

#include <deque>
#include <functional>
#include <vector>

#include "des/simulation.hpp"

namespace ncar::prodload {

class NodeLp {
public:
  /// Runs when a component completes, at its completion event; the
  /// simulation clock reads the completion time.
  using Completion = std::function<void()>;

  /// `total_cpus` on the node; `contention_per_cpu` is the per-active-CPU
  /// bank-conflict slowdown (same constant as the SX-4 node model).
  NodeLp(des::Simulation& sim, int total_cpus, double contention_per_cpu);

  /// FIFO-submit a component needing `cpus` processors for `busy`
  /// quiet-machine seconds. Admission is strict FIFO: a waiting component
  /// that does not fit blocks everything behind it.
  void submit(int cpus, Seconds busy, Completion done);

  int total_cpus() const { return total_cpus_; }
  int used_cpus() const { return used_; }
  std::size_t running_count() const { return running_.size(); }
  std::size_t waiting_count() const { return waiting_.size(); }
  bool idle() const { return running_.empty() && waiting_.empty(); }

  /// CPU-seconds of wall occupancy delivered so far (the year bench's
  /// utilisation numerator). Updated at every node event.
  double busy_cpu_seconds() const { return busy_cpu_seconds_; }

private:
  struct Running {
    int cpus;
    double remaining;  ///< quiet-machine seconds of service left
    Completion done;
  };
  struct Waiting {
    int cpus;
    double busy;
    Completion done;
  };

  /// Fluid-advance running components to sim_.now() (for arrivals that
  /// land between completion events).
  void sync_progress();
  void on_completion();
  void try_admit();
  /// Recompute (factor, dt) from the current active set and (re)arm the
  /// single completion event.
  void arm();

  des::Simulation& sim_;
  int total_cpus_;
  double contention_per_cpu_;
  std::vector<Running> running_;
  std::deque<Waiting> waiting_;
  int used_ = 0;
  bool in_event_ = false;
  double synced_at_ = 0;       ///< sim seconds the remaining values are current at
  double pending_dt_ = 0;      ///< the armed step, replayed by the handler
  double pending_factor_ = 1;  ///< contention factor of the armed step
  des::EventId completion_{};
  double busy_cpu_seconds_ = 0;
};

}  // namespace ncar::prodload
