// Integration-level determinism across execution policies: full
// application models (CCM2, MOM), whose host numerics split over the pool
// under the threaded policy, and multi-node Machine regions must produce
// bit-identical simulated results under the sequential and threaded
// policies.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ccm2/model.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ocean/mom.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace {

using namespace ncar;
using sxs::Cpu;
using sxs::ExecutionPolicy;
using sxs::MachineConfig;

ccm2::Ccm2Config t42_config() {
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  c.active_levels = 1;  // keep the host numerics cheap; charging is full-size
  return c;
}

void expect_same_timing(const ccm2::StepTiming& ts,
                        const ccm2::StepTiming& tt) {
  EXPECT_EQ(ts.serial, tt.serial);
  EXPECT_EQ(ts.spectral_local, tt.spectral_local);
  EXPECT_EQ(ts.synthesis, tt.synthesis);
  EXPECT_EQ(ts.ffts, tt.ffts);
  EXPECT_EQ(ts.grid, tt.grid);
  EXPECT_EQ(ts.analysis, tt.analysis);
  EXPECT_EQ(ts.slt, tt.slt);
  EXPECT_EQ(ts.physics, tt.physics);
  EXPECT_EQ(ts.total, tt.total);
}

// The threaded node also splits the host numerics over its pool (see
// Node::host_pool); 3 and 7 lanes leave uneven latitude blocks.
TEST(PolicyDeterminism, Ccm2T42StepBitIdentical) {
  const ccm2::Ccm2Config c = t42_config();
  for (int threads : {3, 4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    sxs::Node node_seq(MachineConfig::sx4_benchmarked(),
                       ExecutionPolicy::Sequential);
    sxs::Node node_thr(MachineConfig::sx4_benchmarked(),
                       ExecutionPolicy::Threaded);
    node_thr.set_thread_pool(&pool);

    ccm2::Ccm2 seq(c, node_seq);
    ccm2::Ccm2 thr(c, node_thr);

    for (int step = 0; step < 2; ++step) {
      expect_same_timing(seq.step(8), thr.step(8));
    }
    EXPECT_EQ(node_seq.elapsed_seconds(), node_thr.elapsed_seconds());
    EXPECT_EQ(seq.checksum(), thr.checksum());
    for (int i = 0; i < node_seq.cpu_count(); ++i) {
      EXPECT_EQ(node_seq.cpu(i).cycles(), node_thr.cpu(i).cycles());
      EXPECT_EQ(node_seq.cpu(i).equiv_flops(), node_thr.cpu(i).equiv_flops());
    }
  }
}

TEST(PolicyDeterminism, MomStepBitIdentical) {
  for (int threads : {3, 4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    sxs::Node node_seq(MachineConfig::sx4_benchmarked(),
                       ExecutionPolicy::Sequential);
    sxs::Node node_thr(MachineConfig::sx4_benchmarked(),
                       ExecutionPolicy::Threaded);
    node_thr.set_thread_pool(&pool);

    ocean::Mom seq(ocean::MomConfig::low_resolution(), node_seq);
    ocean::Mom thr(ocean::MomConfig::low_resolution(), node_thr);

    for (int step = 0; step < 2; ++step) {
      EXPECT_EQ(seq.step(8), thr.step(8));
    }
    EXPECT_EQ(node_seq.elapsed_seconds(), node_thr.elapsed_seconds());
    EXPECT_EQ(seq.mean_temperature(), thr.mean_temperature());
    EXPECT_EQ(seq.checksum(), thr.checksum());
    for (int i = 0; i < node_seq.cpu_count(); ++i) {
      EXPECT_EQ(node_seq.cpu(i).cycles(), node_thr.cpu(i).cycles());
    }
  }
}

TEST(PolicyDeterminism, Ccm2StepNestedInPoolTaskBitIdentical) {
  // Models stepped from inside a parallel_for body on the pool their nodes
  // use: their nested parallel_blocks calls must complete and match the
  // sequential run.
  const ccm2::Ccm2Config c = t42_config();
  sxs::Node node_seq(MachineConfig::sx4_benchmarked(),
                     ExecutionPolicy::Sequential);
  ccm2::Ccm2 seq(c, node_seq);
  ccm2::StepTiming want[2];
  for (auto& t : want) t = seq.step(8);

  constexpr int kModels = 3;
  ThreadPool pool(4);
  std::vector<std::unique_ptr<sxs::Node>> nodes;
  std::vector<std::unique_ptr<ccm2::Ccm2>> models;
  for (int i = 0; i < kModels; ++i) {
    nodes.push_back(std::make_unique<sxs::Node>(
        MachineConfig::sx4_benchmarked(), ExecutionPolicy::Threaded));
    nodes.back()->set_thread_pool(&pool);
    models.push_back(std::make_unique<ccm2::Ccm2>(c, *nodes.back()));
  }
  ccm2::StepTiming got[kModels][2];
  pool.parallel_for(kModels, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    for (auto& t : got[k]) t = models[k]->step(8);
  });
  for (int i = 0; i < kModels; ++i) {
    SCOPED_TRACE("model " + std::to_string(i));
    for (int s = 0; s < 2; ++s) expect_same_timing(want[s], got[i][s]);
    EXPECT_EQ(models[static_cast<std::size_t>(i)]->checksum(), seq.checksum());
  }
}

void charge_rank_work(Cpu& cpu, int node, int rank) {
  Rng rng(0xabc000ull + 97ull * static_cast<std::uint64_t>(node) +
          static_cast<std::uint64_t>(rank));
  sxs::VectorOp op;
  op.n = 1000 + static_cast<long>(rng.next_below(8000));
  op.flops_per_elem = 2.0 + rng.next_double() * 4.0;
  op.load_words = 2.0;
  op.store_words = 1.0;
  op.pipe_groups = 2;
  cpu.vec(op, 1 + static_cast<long>(rng.next_below(4)));
}

TEST(PolicyDeterminism, MachineParallelAndExchangeBitIdentical) {
  ThreadPool pool(4);
  sxs::Machine seq(MachineConfig::sx4_multinode(4),
                   ExecutionPolicy::Sequential);
  sxs::Machine thr(MachineConfig::sx4_multinode(4),
                   ExecutionPolicy::Threaded);
  thr.set_thread_pool(&pool);

  const auto body = [](int node, int rank, Cpu& cpu) {
    charge_rank_work(cpu, node, rank);
  };
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(seq.parallel(4, 8, body), thr.parallel(4, 8, body));
    EXPECT_EQ(seq.exchange(4, ncar::Bytes(3.2e8)),
              thr.exchange(4, ncar::Bytes(3.2e8)));
  }
  EXPECT_EQ(seq.elapsed_seconds(), thr.elapsed_seconds());
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(seq.node(n).elapsed_seconds(), thr.node(n).elapsed_seconds());
    for (int i = 0; i < seq.node(n).cpu_count(); ++i) {
      EXPECT_EQ(seq.node(n).cpu(i).cycles(), thr.node(n).cpu(i).cycles());
    }
  }
}

TEST(PolicyDeterminism, ResetAndExternalLoadInteractWithThreadedPath) {
  ThreadPool pool(4);
  sxs::Node seq(MachineConfig::sx4_benchmarked(),
                ExecutionPolicy::Sequential);
  sxs::Node thr(MachineConfig::sx4_benchmarked(), ExecutionPolicy::Threaded);
  thr.set_thread_pool(&pool);

  const auto body = [](int rank, Cpu& cpu) { charge_rank_work(cpu, 0, rank); };

  // Region under external load, then reset, then a clean region: the
  // threaded node must mirror the sequential one through the whole cycle.
  seq.set_external_active_cpus(16);
  thr.set_external_active_cpus(16);
  EXPECT_EQ(seq.parallel(8, body), thr.parallel(8, body));

  seq.reset();
  thr.reset();
  EXPECT_EQ(seq.elapsed_seconds(), 0.0);
  EXPECT_EQ(thr.elapsed_seconds(), 0.0);
  EXPECT_EQ(seq.external_active_cpus(), 0);
  EXPECT_EQ(thr.external_active_cpus(), 0);

  // Post-reset regions are uncontended again, identically under both.
  const double ts = seq.parallel(8, body);
  const double tt = thr.parallel(8, body);
  EXPECT_EQ(ts, tt);
  for (int i = 0; i < seq.cpu_count(); ++i) {
    EXPECT_EQ(seq.cpu(i).cycles(), thr.cpu(i).cycles());
  }
}

}  // namespace
