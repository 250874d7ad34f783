#pragma once
// An online NQS queue complex as a DES logical process (paper section
// 2.6.3).
//
// "SUPER-UX NQS is enhanced to add substantial user control over work...
// NQS queues, queue complexes, and the full range of individual queue
// parameters and accounting facilities are supported."
//
// A production year is an *open* system: jobs arrive continuously, queues
// drain by priority under their run limits, and the machine's FIFO
// resource block is shared by every queue. QueueComplexLp is that open
// system on the DES kernel: named queues with a per-job CPU ceiling and a
// run limit (how many of the queue's jobs may execute concurrently). Each
// queue holds a (priority desc, arrival asc) backlog, dispatches to the
// shared NodeLp whenever it has a free run slot, and reclaims the slot at
// the job's completion event.
//
// Everything here is deterministic: dispatch order is a pure function of
// (priority, submission order), and all timing comes from the simulation
// clock.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "prodload/node_lp.hpp"

namespace ncar::prodload {

struct QueueSpec {
  std::string name;
  int max_cpus_per_job = 32;  ///< per-job CPU ceiling (qmgr "per-request")
  int run_limit = 1;          ///< concurrently executing jobs from this queue
};

struct NqsJob {
  std::string name;
  int cpus = 1;
  Seconds service{};
  int priority = 0;       ///< higher runs earlier within its queue
  std::uint64_t tag = 0;  ///< caller-owned correlation id (completion callbacks)
};

class QueueComplexLp {
public:
  /// Runs at a job's completion event: the job, when it entered the
  /// queue, when it was dispatched to the node, and now() = completion.
  using Completion = std::function<void(const NqsJob&, Seconds queued,
                                        Seconds dispatched, Seconds finished)>;

  QueueComplexLp(des::Simulation& sim, NodeLp& node,
                 std::vector<QueueSpec> queues);

  int queue_count() const { return static_cast<int>(queues_.size()); }
  const QueueSpec& queue(int q) const;
  int queue_index(const std::string& name) const;  ///< -1 when absent

  /// Enqueue a job at now(); dispatches immediately if the queue has a
  /// free run slot. Throws when the job exceeds the queue's per-job
  /// ceiling or the node's CPU count.
  void submit(int q, NqsJob job);
  void submit(const std::string& queue, NqsJob job);

  void set_completion(Completion cb) { completion_ = std::move(cb); }

  // --- instantaneous state ------------------------------------------------
  int backlog(int q) const;     ///< queued, not yet dispatched
  int in_service(int q) const;  ///< dispatched, not yet completed
  bool idle() const;            ///< no queue has backlog or in-service jobs

  // --- cumulative statistics ----------------------------------------------
  std::uint64_t jobs_submitted() const { return submitted_; }
  std::uint64_t jobs_completed() const { return completed_; }
  std::uint64_t max_backlog() const { return max_backlog_; }
  double total_wait_s() const { return total_wait_s_; }          ///< queue->dispatch
  double total_response_s() const { return total_response_s_; }  ///< queue->finish

private:
  /// Backlog entries stay in submission order (push_back only), so the
  /// first entry of any priority is the oldest — FIFO tie-break for free.
  struct Queued {
    NqsJob job;
    Seconds queued{};
  };

  /// Dispatch from queue `q` while it has backlog and free run slots.
  void dispatch(std::size_t q);

  des::Simulation& sim_;
  NodeLp& node_;
  std::vector<QueueSpec> queues_;
  std::vector<std::deque<Queued>> backlog_;  // per queue
  std::vector<int> active_;                  // per queue, counts run slots held
  Completion completion_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t max_backlog_ = 0;
  double total_wait_s_ = 0;
  double total_response_s_ = 0;
};

}  // namespace ncar::prodload
