#pragma once
// Synthetic multi-tenant workload generation for year-scale PRODLOAD runs.
//
// The paper's PRODLOAD replays one fixed 93-minute trace; evaluating a
// center-scale machine needs the workload *model* behind such traces
// (OMI4papps-style): a Markov chain over job classes (which job follows
// which), a Markov-modulated Poisson arrival process (calm/burst phases),
// heavy-tailed service times, and failure/retry storms. Every stochastic
// choice draws from its own named RNG stream ("arrival", "jobmix",
// "service", "failure", "phase"), so the generated job sequence is
// byte-identical no matter how the consuming simulation interleaves its
// own events — the foundation of the prodload_year determinism guarantee.
//
// The generator is a logical process: it schedules one arrival event at a
// time (bounded memory regardless of horizon) and hands each job to a
// sink callback; the sink decides what "running a job" means (the year
// bench routes them into an NQS queue complex on a shared DesNode).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "des/simulation.hpp"

namespace ncar::des {

/// One job class of the mix: a CPU width, a service-time distribution
/// (exponential body with a bounded-Pareto tail), and the NQS queue the
/// class is submitted to.
struct JobClass {
  std::string name;
  std::string queue;         ///< target queue name
  int cpus = 1;
  double mean_service_s = 600.0;
  double tail_fraction = 0.1;   ///< fraction of jobs drawn from the tail
  double tail_shape = 1.5;      ///< bounded-Pareto shape (heavier when small)
  double tail_cap_s = 86400.0;  ///< hard cap on one service time
  int priority = 0;
};

struct WorkloadConfig {
  std::vector<JobClass> classes;
  /// Row-stochastic Markov transition weights between classes; entry
  /// [i][j] is the (unnormalised) weight of class j following class i.
  /// Empty means independent draws with equal weights.
  std::vector<std::vector<double>> transition;

  // --- arrivals: Markov-modulated Poisson -------------------------------
  double mean_interarrival_s = 120.0;  ///< calm-phase mean interarrival
  double burst_rate_multiplier = 6.0;  ///< burst phase is this much hotter
  double mean_calm_s = 4.0 * 3600;     ///< mean calm-phase duration
  double mean_burst_s = 20.0 * 60;     ///< mean burst-phase duration

  // --- failures and retry storms ----------------------------------------
  double failure_prob = 0.01;        ///< per-completion failure, calm
  double storm_failure_prob = 0.25;  ///< per-completion failure, storm
  double mean_storm_gap_s = 30.0 * 86400;  ///< mean time between storms
  double mean_storm_s = 2.0 * 3600;        ///< mean storm duration
  double mean_retry_delay_s = 300.0;
  int max_retries = 3;

  void validate() const;  ///< throws ncar::config_error on nonsense
};

/// One generated arrival, handed to the sink at its arrival event.
struct SyntheticJob {
  std::uint64_t id = 0;
  int job_class = 0;   ///< index into WorkloadConfig::classes
  int attempt = 0;     ///< 0 = first submission, >0 = retry
  Seconds arrival{};
  Seconds service{};
};

class WorkloadGenerator {
public:
  using Sink = std::function<void(const SyntheticJob&)>;

  /// Starts generating arrivals on `sim` from now() until `horizon`; jobs
  /// are delivered to `sink` at their arrival events. The generator must
  /// outlive the simulation run.
  WorkloadGenerator(Simulation& sim, WorkloadConfig cfg, Sink sink);

  /// Report a completed job as failed; schedules a retry (same class and
  /// service time, attempt+1) after a random delay unless the retry
  /// budget is spent. Returns true when a retry was scheduled.
  bool report_failure(const SyntheticJob& job);

  /// Draw from the "failure" stream: does this completion fail? (Elevated
  /// probability while a failure storm is active.)
  bool draw_failure();

  void start(Seconds horizon);

  // --- state & statistics (deterministic) --------------------------------
  bool in_storm() const { return in_storm_; }
  std::uint64_t jobs_emitted() const { return jobs_emitted_; }
  std::uint64_t retries_emitted() const { return retries_emitted_; }
  std::uint64_t retries_abandoned() const { return retries_abandoned_; }
  std::uint64_t bursts() const { return bursts_; }
  std::uint64_t storms() const { return storms_; }

private:
  void schedule_next_arrival();
  void schedule_phase_flip();
  void schedule_storm_edge();
  void emit(SyntheticJob job);
  int draw_next_class();
  Seconds draw_service(const JobClass& jc);

  Simulation& sim_;
  WorkloadConfig cfg_;
  Sink sink_;
  Seconds horizon_{};
  bool started_ = false;
  bool in_burst_ = false;
  bool in_storm_ = false;
  int current_class_ = 0;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t jobs_emitted_ = 0;
  std::uint64_t retries_emitted_ = 0;
  std::uint64_t retries_abandoned_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t storms_ = 0;
};

}  // namespace ncar::des
