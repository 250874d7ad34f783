// Golden determinism tests: the DES-ported scheduler must reproduce the
// pre-port results bit-exactly.
//
// Two layers of pinning:
//   * a verbatim copy of the legacy drain-clock loop (the scheduler as it
//     was before the port) lives in this file as the reference;
//     randomized workloads must match it double-for-double;
//   * the PRODLOAD bench's four test times are pinned to the exact
//     doubles committed in bench/baselines/prodload.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ccm2/model.hpp"
#include "iosim/hippi.hpp"
#include "prodload/scheduler.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace {

using ncar::Bytes;
using ncar::Seconds;

// ---------------------------------------------------------------------------
// The legacy scheduler loop, verbatim (pre-DES drain clock).

struct LegacyRunning {
  int seq, job, comp, cpus;
  double remaining;
};
struct LegacyWaiting {
  int seq, job, comp, cpus;
  double busy;
  long fifo;
};

ncar::prodload::RunResult legacy_run(
    const std::vector<ncar::prodload::Sequence>& sequences, int total_cpus,
    double contention_per_cpu) {
  using ncar::prodload::RunResult;
  RunResult result;
  const std::size_t nseq = sequences.size();
  std::vector<std::size_t> next_job(nseq, 0);
  std::vector<int> live_components(nseq, 0);
  std::vector<double> job_start(nseq, 0);
  std::vector<LegacyRunning> running;
  std::vector<LegacyWaiting> waiting;
  long fifo_counter = 0;
  int used_cpus = 0;
  double now = 0;

  auto admit_job = [&](int seq, double t) {
    const auto& job = sequences[static_cast<std::size_t>(seq)]
                          .jobs[next_job[static_cast<std::size_t>(seq)]];
    live_components[static_cast<std::size_t>(seq)] =
        static_cast<int>(job.components.size());
    job_start[static_cast<std::size_t>(seq)] = t;
    for (std::size_t c = 0; c < job.components.size(); ++c) {
      waiting.push_back(
          {seq, static_cast<int>(next_job[static_cast<std::size_t>(seq)]),
           static_cast<int>(c), job.components[c].cpus,
           job.components[c].busy.value(), fifo_counter++});
    }
  };

  auto start_waiting = [&] {
    std::sort(waiting.begin(), waiting.end(),
              [](const LegacyWaiting& a, const LegacyWaiting& b) {
                return a.fifo < b.fifo;
              });
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (it->cpus <= total_cpus - used_cpus) {
        running.push_back({it->seq, it->job, it->comp, it->cpus, it->busy});
        used_cpus += it->cpus;
        it = waiting.erase(it);
      } else {
        break;
      }
    }
  };

  for (std::size_t s = 0; s < nseq; ++s) admit_job(static_cast<int>(s), 0.0);
  start_waiting();

  while (!running.empty()) {
    const double factor =
        1.0 + contention_per_cpu * std::max(0, used_cpus - 1);
    double dt = std::numeric_limits<double>::infinity();
    for (const auto& r : running) dt = std::min(dt, r.remaining * factor);
    now += dt;
    for (auto& r : running) r.remaining -= dt / factor;
    for (auto it = running.begin(); it != running.end();) {
      if (it->remaining <= 1e-12) {
        used_cpus -= it->cpus;
        const int seq = it->seq;
        it = running.erase(it);
        if (--live_components[static_cast<std::size_t>(seq)] == 0) {
          const auto& sequence = sequences[static_cast<std::size_t>(seq)];
          const double started = job_start[static_cast<std::size_t>(seq)];
          result.jobs.push_back(
              {sequence.name + "/" +
                   sequence.jobs[next_job[static_cast<std::size_t>(seq)]].name,
               Seconds(started), Seconds(now)});
          if (++next_job[static_cast<std::size_t>(seq)] <
              sequence.jobs.size()) {
            admit_job(seq, now);
          }
        }
      } else {
        ++it;
      }
    }
    start_waiting();
  }
  result.makespan = Seconds(now);
  return result;
}

// ---------------------------------------------------------------------------

std::vector<ncar::prodload::Sequence> random_workload(std::mt19937_64& rng,
                                                      int total_cpus) {
  std::uniform_int_distribution<int> nseq(1, 4), njobs(1, 3), ncomp(1, 3);
  std::uniform_int_distribution<int> cpus(1, total_cpus);
  std::uniform_real_distribution<double> busy(0.5, 100.0);
  std::vector<ncar::prodload::Sequence> seqs(
      static_cast<std::size_t>(nseq(rng)));
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    seqs[s].name = "seq" + std::to_string(s);
    seqs[s].jobs.resize(static_cast<std::size_t>(njobs(rng)));
    for (std::size_t j = 0; j < seqs[s].jobs.size(); ++j) {
      auto& job = seqs[s].jobs[j];
      job.name = "job" + std::to_string(j);
      job.components.resize(static_cast<std::size_t>(ncomp(rng)));
      for (std::size_t c = 0; c < job.components.size(); ++c) {
        job.components[c] = {"comp" + std::to_string(c), cpus(rng),
                             Seconds(busy(rng))};
      }
    }
  }
  return seqs;
}

TEST(GoldenScheduler, RandomWorkloadsMatchLegacyLoopBitExactly) {
  std::mt19937_64 rng(0x90211);
  for (int trial = 0; trial < 200; ++trial) {
    const int total_cpus = 8;
    const double contention = (trial % 3 == 0) ? 0.0 : 6.8e-4;
    const auto seqs = random_workload(rng, total_cpus);
    const auto expected = legacy_run(seqs, total_cpus, contention);
    const ncar::prodload::Scheduler sched(total_cpus, contention);
    const auto got = sched.run(seqs);
    ASSERT_EQ(got.jobs.size(), expected.jobs.size()) << "trial " << trial;
    EXPECT_EQ(got.makespan.value(), expected.makespan.value())
        << "trial " << trial;
    for (std::size_t i = 0; i < got.jobs.size(); ++i) {
      EXPECT_EQ(got.jobs[i].name, expected.jobs[i].name) << "trial " << trial;
      EXPECT_EQ(got.jobs[i].start.value(), expected.jobs[i].start.value())
          << "trial " << trial << " job " << i;
      EXPECT_EQ(got.jobs[i].end.value(), expected.jobs[i].end.value())
          << "trial " << trial << " job " << i;
    }
  }
}

// The four PRODLOAD test times, pinned to the exact doubles committed in
// bench/baselines/prodload.json. This is the bench's computation
// (bench/prodload.cpp) replayed through the DES-ported scheduler.
TEST(GoldenScheduler, ProdloadBaselineDoublesAreBitIdentical) {
  using namespace ncar;
  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);

  auto ccm2_days = [&](const ccm2::Resolution& res, int cpus, double days) {
    ccm2::Ccm2Config c;
    c.res = res;
    c.active_levels = 1;
    ccm2::Ccm2 model(c, node);
    node.reset();
    const double per_step = model.measure_charge_seconds(cpus, 2);
    return Seconds(per_step * res.steps_per_day() * days);
  };
  const Seconds t42_20d = ccm2_days(ccm2::t42l18(), 2, 20.0);
  const Seconds t106_3d = ccm2_days(ccm2::t106l18(), 8, 3.0);
  const Seconds t170_2d = ccm2_days(ccm2::t170l18(), 16, 2.0);
  iosim::HippiChannel hippi(cfg);
  const Seconds hippi_test =
      hippi.transfer_seconds(Bytes(10e9), Bytes(1 << 20));

  prodload::Job job;
  job.name = "job";
  job.components = {
      {"HIPPI", 1, hippi_test},
      {"CCM2 T106 3-day", 8, t106_3d},
      {"CCM2 T42 20-day A", 2, t42_20d},
      {"CCM2 T42 20-day B", 2, t42_20d},
  };
  auto make_seq = [&](const std::string& name) {
    prodload::Sequence s;
    s.name = name;
    for (int j = 0; j < 4; ++j) {
      prodload::Job numbered = job;
      numbered.name = "job" + std::to_string(j + 1);
      s.jobs.push_back(numbered);
    }
    return s;
  };

  prodload::Scheduler sched(cfg.cpus_per_node, cfg.bank_contention_per_cpu);
  EXPECT_EQ(sched.run({make_seq("seq1")}).makespan.value(),
            1508.4445278106048);
  EXPECT_EQ(sched.run({make_seq("seq1"), make_seq("seq2")}).makespan.value(),
            1519.1566113018444);
  EXPECT_EQ(sched
                .run({make_seq("seq1"), make_seq("seq2"), make_seq("seq3"),
                      make_seq("seq4")})
                .makespan.value(),
            2352.9917164935932);
  prodload::Sequence t170a{"t170a",
                           {{"T170 2-day", {{"CCM2 T170", 16, t170_2d}}}}};
  prodload::Sequence t170b{"t170b",
                           {{"T170 2-day", {{"CCM2 T170", 16, t170_2d}}}}};
  EXPECT_EQ(sched.run({t170a, t170b}).makespan.value(), 504.54412713416156);
}

}  // namespace
