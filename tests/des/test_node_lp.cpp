// NodeLp tests: the prodload node as a logical process — FIFO admission,
// contention slowdown, streaming arrivals between completion events, and
// the queue complex running an open system on top of it.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "des/simulation.hpp"
#include "prodload/node_lp.hpp"
#include "prodload/queue_complex.hpp"

namespace {

using ncar::Seconds;
using ncar::des::Simulation;
using ncar::prodload::NodeLp;
using ncar::prodload::NqsJob;
using ncar::prodload::QueueComplexLp;
using ncar::prodload::QueueSpec;

TEST(NodeLpTest, SingleComponentRunsAtQuietSpeed) {
  Simulation sim;
  NodeLp node(sim, 4, 0.1);
  double done_at = -1;
  node.submit(2, Seconds(10.0), [&] { done_at = sim.now().value(); });
  sim.run();
  // One component: factor = 1 + 0.1 * max(0, 2-1)... contention counts
  // CPUs, not components: used=2 -> factor 1.1, so 10 quiet seconds take
  // 11 wall seconds.
  EXPECT_DOUBLE_EQ(done_at, 10.0 * 1.1);
  EXPECT_TRUE(node.idle());
  EXPECT_DOUBLE_EQ(node.busy_cpu_seconds(), 2 * 10.0 * 1.1);
}

TEST(NodeLpTest, NoContentionWithOneCpu) {
  Simulation sim;
  NodeLp node(sim, 4, 0.5);
  double done_at = -1;
  node.submit(1, Seconds(10.0), [&] { done_at = sim.now().value(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);  // used-1 == 0: factor exactly 1
}

TEST(NodeLpTest, StrictFifoBlocksBehindWideComponent) {
  Simulation sim;
  NodeLp node(sim, 4, 0.0);
  std::vector<int> done;
  node.submit(3, Seconds(10.0), [&] { done.push_back(0); });
  node.submit(4, Seconds(1.0), [&] { done.push_back(1); });   // must wait
  node.submit(1, Seconds(1.0), [&] { done.push_back(2); });   // behind #1
  EXPECT_EQ(node.running_count(), 1u);
  EXPECT_EQ(node.waiting_count(), 2u);  // the 1-CPU job may NOT jump ahead
  sim.run();
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now().value(), 12.0);
}

TEST(NodeLpTest, StreamingArrivalMidFlight) {
  // With zero contention the fluid model is plain time remaining; an
  // arrival at t=4 joins a job started at t=0 and both finish exactly
  // when their remaining time elapses.
  Simulation sim;
  NodeLp node(sim, 4, 0.0);
  std::vector<double> done;
  node.submit(1, Seconds(10.0), [&] { done.push_back(sim.now().value()); });
  sim.at(Seconds(4.0), [&] {
    node.submit(1, Seconds(2.0), [&] { done.push_back(sim.now().value()); });
  });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 6.0);  // the short job, at 4 + 2
  EXPECT_DOUBLE_EQ(done[1], 10.0);
}

TEST(NodeLpTest, ArrivalChangesContentionFactor) {
  // Job A (1 CPU) alone runs at factor 1. When B (1 CPU) arrives at t=5,
  // both run at factor 1 + c: A's remaining 5s stretch to 5(1+c).
  const double c = 0.2;
  Simulation sim;
  NodeLp node(sim, 4, c);
  std::vector<double> done;
  node.submit(1, Seconds(10.0), [&] { done.push_back(sim.now().value()); });
  sim.at(Seconds(5.0), [&] {
    node.submit(1, Seconds(20.0), [&] { done.push_back(sim.now().value()); });
  });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double a_done = 5.0 + 5.0 * (1.0 + c);
  EXPECT_DOUBLE_EQ(done[0], a_done);
  // B ran (a_done - 5) wall seconds at factor 1+c, then finishes alone.
  // (NEAR, not exact: re-deriving the elapsed wall time from event times
  // rounds differently than the kernel's stored-dt replay.)
  const double b_served = (a_done - 5.0) / (1.0 + c);
  EXPECT_NEAR(done[1], a_done + (20.0 - b_served), 1e-9);
}

TEST(NodeLpTest, RejectsImpossibleComponents) {
  Simulation sim;
  NodeLp node(sim, 4, 0.0);
  EXPECT_THROW(node.submit(5, Seconds(1.0), {}), ncar::precondition_error);
  EXPECT_THROW(node.submit(0, Seconds(1.0), {}), ncar::precondition_error);
  EXPECT_THROW(node.submit(1, Seconds(0.0), {}), ncar::precondition_error);
}

TEST(QueueComplexTest, QueueLookup) {
  Simulation sim;
  NodeLp node(sim, 32, 0.0);
  QueueComplexLp nqs(sim, node, {{"batch", 16, 2}, {"express", 4, 1}});
  EXPECT_EQ(nqs.queue_count(), 2);
  EXPECT_EQ(nqs.queue_index("batch"), 0);
  EXPECT_EQ(nqs.queue_index("express"), 1);
  EXPECT_EQ(nqs.queue_index("nope"), -1);
  EXPECT_EQ(nqs.queue(0).run_limit, 2);
  EXPECT_EQ(nqs.queue(1).max_cpus_per_job, 4);
  EXPECT_THROW(nqs.queue(2), ncar::precondition_error);
}

TEST(QueueComplexTest, InvalidConfigurationsThrow) {
  Simulation sim;
  NodeLp node(sim, 32, 0.0);
  using Specs = std::vector<QueueSpec>;
  EXPECT_THROW(QueueComplexLp(sim, node, Specs{}), ncar::precondition_error);
  EXPECT_THROW(QueueComplexLp(sim, node, Specs{{"", 8, 1}}),
               ncar::precondition_error);
  EXPECT_THROW(QueueComplexLp(sim, node, Specs{{"q", 0, 1}}),
               ncar::precondition_error);
  EXPECT_THROW(QueueComplexLp(sim, node, Specs{{"q", 8, 0}}),
               ncar::precondition_error);
  QueueComplexLp nqs(sim, node, {{"q", 8, 1}});
  EXPECT_THROW(nqs.submit(1, {"x", 1, Seconds(1.0), 0, 0}),
               ncar::precondition_error);
  EXPECT_THROW(nqs.submit("q", {"x", 0, Seconds(1.0), 0, 0}),
               ncar::precondition_error);
  EXPECT_THROW(nqs.submit("q", {"x", 1, Seconds(0.0), 0, 0}),
               ncar::precondition_error);
  EXPECT_EQ(nqs.jobs_submitted(), 0u);
  EXPECT_TRUE(nqs.idle());
}

TEST(QueueComplexTest, QueuesCompeteForTheNode) {
  // Two queues with free run slots but an 8-CPU node: the node's FIFO
  // admission serialises what the queues release.
  Simulation sim;
  NodeLp node(sim, 8, 0.0);
  QueueComplexLp nqs(sim, node, {{"a", 8, 4}, {"b", 8, 4}});
  std::vector<double> finished;
  nqs.set_completion([&](const NqsJob&, Seconds, Seconds, Seconds done) {
    finished.push_back(done.value());
  });
  nqs.submit("a", {"a1", 8, Seconds(50.0), 0, 0});
  nqs.submit("b", {"b1", 8, Seconds(50.0), 0, 0});
  EXPECT_EQ(nqs.in_service(0), 1);
  EXPECT_EQ(nqs.in_service(1), 1);
  sim.run();
  EXPECT_EQ(finished, (std::vector<double>{50.0, 100.0}));
  EXPECT_TRUE(nqs.idle());
}

TEST(QueueComplexTest, RunLimitCapsConcurrency) {
  Simulation sim;
  NodeLp node(sim, 32, 0.0);
  QueueComplexLp nqs(sim, node, {{"q", 32, 2}});
  int completed = 0;
  nqs.set_completion(
      [&](const NqsJob&, Seconds, Seconds, Seconds) { ++completed; });
  for (int i = 0; i < 6; ++i) {
    nqs.submit("q", {"job", 1, Seconds(10.0), 0, 0});
  }
  // run_limit 2: only two dispatched, four queued — even though the node
  // has 30 free CPUs.
  EXPECT_EQ(nqs.in_service(0), 2);
  EXPECT_EQ(nqs.backlog(0), 4);
  sim.run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(sim.now().value(), 30.0);  // three serial waves of two
  EXPECT_TRUE(nqs.idle());
}

TEST(QueueComplexTest, PriorityDispatchWithFifoTieBreak) {
  Simulation sim;
  NodeLp node(sim, 1, 0.0);
  QueueComplexLp nqs(sim, node, {{"q", 1, 1}});
  std::vector<std::uint64_t> order;
  nqs.set_completion([&](const NqsJob& j, Seconds, Seconds, Seconds) {
    order.push_back(j.tag);
  });
  nqs.submit("q", {"low1", 1, Seconds(1.0), 0, 1});   // dispatches at once
  nqs.submit("q", {"low2", 1, Seconds(1.0), 0, 2});
  nqs.submit("q", {"high", 1, Seconds(1.0), 5, 3});
  nqs.submit("q", {"low3", 1, Seconds(1.0), 0, 4});
  sim.run();
  // 1 ran immediately; then the high-priority 3; then 2 and 4 FIFO.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2, 4}));
}

TEST(QueueComplexTest, WaitAndResponseAccounting) {
  Simulation sim;
  NodeLp node(sim, 1, 0.0);
  QueueComplexLp nqs(sim, node, {{"q", 1, 1}});
  nqs.submit("q", {"a", 1, Seconds(4.0), 0, 0});
  nqs.submit("q", {"b", 1, Seconds(4.0), 0, 0});  // waits 4s
  sim.run();
  EXPECT_EQ(nqs.jobs_completed(), 2u);
  EXPECT_DOUBLE_EQ(nqs.total_wait_s(), 4.0);
  EXPECT_DOUBLE_EQ(nqs.total_response_s(), 4.0 + 8.0);
  EXPECT_EQ(nqs.max_backlog(), 1u);
}

TEST(QueueComplexTest, RejectsOverCeilingJobs) {
  Simulation sim;
  NodeLp node(sim, 32, 0.0);
  QueueComplexLp nqs(sim, node, {{"q", 4, 1}});
  EXPECT_THROW(nqs.submit("q", {"wide", 8, Seconds(1.0), 0, 0}),
               ncar::precondition_error);
  EXPECT_THROW(nqs.submit("missing", {"x", 1, Seconds(1.0), 0, 0}),
               ncar::precondition_error);
}

}  // namespace
