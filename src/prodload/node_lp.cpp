#include "prodload/node_lp.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace ncar::prodload {

NodeLp::NodeLp(des::Simulation& sim, int total_cpus, double contention_per_cpu)
    : sim_(sim),
      total_cpus_(total_cpus),
      contention_per_cpu_(contention_per_cpu),
      synced_at_(sim.now().value()) {
  NCAR_REQUIRE(total_cpus >= 1, "need at least one CPU");
  NCAR_REQUIRE(contention_per_cpu >= 0, "contention coefficient");
}

void NodeLp::submit(int cpus, Seconds busy, Completion done) {
  NCAR_REQUIRE(cpus >= 1 && cpus <= total_cpus_,
               "component CPU demand must fit the node");
  NCAR_REQUIRE(busy > Seconds(0.0), "component service time");
  waiting_.push_back({cpus, busy.value(), std::move(done)});
  // From inside a completion handler, admission and re-arming are deferred
  // to the end of the retirement batch (the old loop's ordering).
  if (in_event_) return;
  sync_progress();
  try_admit();
  arm();
}

void NodeLp::sync_progress() {
  const double now = sim_.now().value();
  if (now > synced_at_ && !running_.empty()) {
    const double dt = now - synced_at_;
    for (auto& r : running_) r.remaining -= dt / pending_factor_;
    busy_cpu_seconds_ += dt * static_cast<double>(used_);
  }
  synced_at_ = now;
}

void NodeLp::on_completion() {
  completion_ = {};
  in_event_ = true;
  // Replay the stored step, never (event time - synced time): the stored
  // dt is the exact double the remaining-time scan produced.
  const double dt = pending_dt_;
  const double factor = pending_factor_;
  busy_cpu_seconds_ += dt * static_cast<double>(used_);
  for (auto& r : running_) r.remaining -= dt / factor;
  synced_at_ = sim_.now().value();
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->remaining <= 1e-12) {
      used_ -= it->cpus;
      Completion done = std::move(it->done);
      it = running_.erase(it);
      if (done) done();
    } else {
      ++it;
    }
  }
  in_event_ = false;
  try_admit();
  arm();
}

void NodeLp::try_admit() {
  while (!waiting_.empty() &&
         waiting_.front().cpus <= total_cpus_ - used_) {
    Waiting w = std::move(waiting_.front());
    waiting_.pop_front();
    used_ += w.cpus;
    running_.push_back({w.cpus, w.busy, std::move(w.done)});
  }
  // Strict FIFO means a too-wide component blocks everything behind it;
  // an empty node that still cannot start its front component is stuck.
  NCAR_REQUIRE(!running_.empty() || waiting_.empty(),
               "scheduler deadlock: waiting components cannot start");
}

void NodeLp::arm() {
  if (completion_.valid()) {
    sim_.cancel(completion_);
    completion_ = {};
  }
  if (running_.empty()) {
    pending_dt_ = 0;
    pending_factor_ = 1.0;
    return;
  }
  const double factor =
      1.0 + contention_per_cpu_ * std::max(0, used_ - 1);
  double dt = std::numeric_limits<double>::infinity();
  for (const auto& r : running_) dt = std::min(dt, r.remaining * factor);
  pending_dt_ = dt;
  pending_factor_ = factor;
  completion_ = sim_.at(Seconds(synced_at_ + dt), [this] { on_completion(); });
}

}  // namespace ncar::prodload
