#include "prodload/queue_complex.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace ncar::prodload {

QueueComplexLp::QueueComplexLp(des::Simulation& sim, NodeLp& node,
                               std::vector<QueueSpec> queues)
    : sim_(sim), node_(node), queues_(std::move(queues)) {
  NCAR_REQUIRE(!queues_.empty(), "need at least one queue");
  for (const auto& q : queues_) {
    NCAR_REQUIRE(!q.name.empty(), "queue needs a name");
    NCAR_REQUIRE(q.max_cpus_per_job >= 1, "per-job CPU ceiling");
    NCAR_REQUIRE(q.run_limit >= 1, "run limit");
  }
  backlog_.resize(queues_.size());
  active_.resize(queues_.size(), 0);
}

const QueueSpec& QueueComplexLp::queue(int q) const {
  NCAR_REQUIRE(q >= 0 && q < queue_count(), "queue index");
  return queues_[static_cast<std::size_t>(q)];
}

int QueueComplexLp::queue_index(const std::string& name) const {
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (queues_[q].name == name) return static_cast<int>(q);
  }
  return -1;
}

void QueueComplexLp::submit(const std::string& queue, NqsJob job) {
  const int q = queue_index(queue);
  NCAR_REQUIRE(q >= 0, "unknown queue: " + queue);
  submit(q, std::move(job));
}

void QueueComplexLp::submit(int q, NqsJob job) {
  NCAR_REQUIRE(q >= 0 && q < queue_count(), "queue index");
  const auto qi = static_cast<std::size_t>(q);
  NCAR_REQUIRE(job.cpus >= 1, "job CPU request");
  NCAR_REQUIRE(job.cpus <= queues_[qi].max_cpus_per_job,
               "job exceeds the queue's per-job CPU ceiling");
  NCAR_REQUIRE(job.cpus <= node_.total_cpus(),
               "job exceeds the node's CPU count");
  NCAR_REQUIRE(job.service > Seconds(0.0), "job service time");
  backlog_[qi].push_back({std::move(job), sim_.now()});
  ++submitted_;
  max_backlog_ = std::max(max_backlog_,
                          static_cast<std::uint64_t>(backlog_[qi].size()));
  dispatch(qi);
}

int QueueComplexLp::backlog(int q) const {
  NCAR_REQUIRE(q >= 0 && q < queue_count(), "queue index");
  return static_cast<int>(backlog_[static_cast<std::size_t>(q)].size());
}

int QueueComplexLp::in_service(int q) const {
  NCAR_REQUIRE(q >= 0 && q < queue_count(), "queue index");
  return active_[static_cast<std::size_t>(q)];
}

bool QueueComplexLp::idle() const {
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (!backlog_[q].empty() || active_[q] != 0) return false;
  }
  return true;
}

void QueueComplexLp::dispatch(std::size_t q) {
  auto& backlog = backlog_[q];
  while (!backlog.empty() && active_[q] < queues_[q].run_limit) {
    // Highest priority first; submission order breaks ties.
    auto best = backlog.begin();
    for (auto it = backlog.begin(); it != backlog.end(); ++it) {
      if (it->job.priority > best->job.priority) best = it;
    }
    Queued qd = std::move(*best);
    backlog.erase(best);
    ++active_[q];
    const Seconds dispatched = sim_.now();
    total_wait_s_ += (dispatched - qd.queued).value();
    node_.submit(qd.job.cpus, qd.job.service,
                 [this, q, qd = std::move(qd), dispatched] {
                   --active_[q];
                   ++completed_;
                   const Seconds finished = sim_.now();
                   total_response_s_ += (finished - qd.queued).value();
                   if (completion_) {
                     completion_(qd.job, qd.queued, dispatched, finished);
                   }
                   dispatch(q);
                 });
  }
}

}  // namespace ncar::prodload
