// prodload_year — a year of NQS operations on the DES kernel.
//
// The paper's PRODLOAD replays a fixed 93-minute job script (bench/
// prodload.cpp). This bench asks the question a center planner would: what
// does a *year* of production look like on the SX-4/32 node? A synthetic
// workload (Markov job mix, bursty MMPP arrivals, heavy-tailed service
// times, failure/retry storms — src/des/workload.hpp) feeds an online NQS
// queue complex (src/prodload/queue_complex.hpp) dispatching onto the
// 32-CPU node logical process, all on one event calendar.
//
// Memory stays bounded no matter the horizon: the generator keeps one
// arrival event in flight, the calendar holds only live events (no
// tombstones), and the bench accumulates aggregates, never per-job
// records. Every simulated metric is deterministic — byte-identical
// across repeat runs, host-thread policies, and SX4NCAR_TRACE settings
// (ctest prodload_year_determinism pins this). The only
// host-dependent output is the events/sec throughput of the kernel
// itself, reported as a host metric (omitted under --deterministic).
//
// Knobs: SX4NCAR_YEAR_DAYS and SX4NCAR_YEAR_SEED, documented in the knob
// table (common/knobs.hpp). A malformed knob stops the run with exit 2
// naming it.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "des/simulation.hpp"
#include "des/workload.hpp"
#include "harness/reporter.hpp"
#include "prodload/node_lp.hpp"
#include "prodload/queue_complex.hpp"
#include "sxs/machine_config.hpp"

namespace {

/// The job mix: CCM2-flavoured classes sized so the node runs at roughly
/// 55-60% average utilisation — busy enough for queueing, stable enough
/// that a year-long backlog stays bounded.
ncar::des::WorkloadConfig year_mix() {
  ncar::des::WorkloadConfig cfg;
  cfg.classes = {
      // name       queue         cpus  mean_s  tail   shape  cap      prio
      {"express",   "express",    1,    240.0,  0.05,  1.5,   3600.0,  10},
      {"t42_dev",   "regular",    2,    900.0,  0.10,  1.5,   43200.0, 0},
      {"t106_prod", "production", 8,    450.0,  0.10,  1.5,   43200.0, 0},
      {"t170_prod", "production", 16,   150.0,  0.10,  1.5,   21600.0, 5},
  };
  // Row-stochastic weights steering the stationary mix toward the narrow
  // classes (roughly .4 express, .35 t42, .15 t106, .1 t170).
  cfg.transition = {
      {0.45, 0.35, 0.12, 0.08},
      {0.40, 0.38, 0.14, 0.08},
      {0.35, 0.33, 0.20, 0.12},
      {0.35, 0.30, 0.15, 0.20},
  };
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("prodload_year", argc, argv);
  const auto machine = sxs::MachineConfig::sx4_benchmarked();

  const auto [days, seed] = rep.read_knobs([] {
    const knobs::Settings& env = knobs::process();
    return std::pair{env.positive("SX4NCAR_YEAR_DAYS", 365.0),
                     env.uint64("SX4NCAR_YEAR_SEED", 0)};
  });
  const Seconds horizon(days * 86400.0);

  des::Simulation sim = seed != 0 ? des::Simulation(seed) : des::Simulation();
  prodload::NodeLp node(sim, machine.cpus_per_node,
                        machine.bank_contention_per_cpu);
  prodload::QueueComplexLp nqs(
      sim, node,
      {{"express", 2, 4}, {"regular", 8, 8}, {"production", 16, 4}});

  const des::WorkloadConfig mix = year_mix();
  // In-flight jobs by tag, so a completion can be routed back to the
  // generator's failure/retry machinery. Bounded by jobs in the system.
  std::unordered_map<std::uint64_t, des::SyntheticJob> in_flight;
  std::size_t peak_in_flight = 0;
  std::uint64_t failures = 0;

  des::WorkloadGenerator gen(sim, mix, [&](const des::SyntheticJob& job) {
    const auto& jc = mix.classes[static_cast<std::size_t>(job.job_class)];
    prodload::NqsJob nj;
    nj.name = jc.name;
    nj.cpus = jc.cpus;
    nj.service = job.service;
    nj.priority = jc.priority;
    nj.tag = job.id * 8 + static_cast<std::uint64_t>(job.attempt);
    in_flight.emplace(nj.tag, job);
    peak_in_flight = std::max(peak_in_flight, in_flight.size());
    nqs.submit(jc.queue, std::move(nj));
  });

  nqs.set_completion([&](const prodload::NqsJob& nj, Seconds, Seconds,
                         Seconds) {
    const auto it = in_flight.find(nj.tag);
    const des::SyntheticJob job = it->second;
    in_flight.erase(it);
    if (gen.draw_failure()) {
      ++failures;
      gen.report_failure(job);
    }
  });

  gen.start(horizon);
  const auto host_start = std::chrono::steady_clock::now();
  sim.run();
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  const double sim_days = sim.now().value() / 86400.0;
  const double completed = static_cast<double>(nqs.jobs_completed());
  const double mean_wait =
      completed > 0 ? nqs.total_wait_s() / completed : 0.0;
  const double mean_response =
      completed > 0 ? nqs.total_response_s() / completed : 0.0;
  const double utilization =
      node.busy_cpu_seconds() /
      (static_cast<double>(machine.cpus_per_node) * sim.now().value());
  const double events = static_cast<double>(sim.events_executed());

  print_banner(std::cout,
               "PRODLOAD-YEAR: a year of NQS operations, SX-4/32");
  Table t({"Quantity", "Value"});
  t.add_row({"simulated horizon", format_duration(horizon)});
  t.add_row({"simulated time", format_duration(sim.now())});
  t.add_row({"jobs completed", std::to_string(nqs.jobs_completed())});
  t.add_row({"retries", std::to_string(gen.retries_emitted())});
  t.add_row({"arrival bursts", std::to_string(gen.bursts())});
  t.add_row({"failure storms", std::to_string(gen.storms())});
  t.add_row({"node utilization",
             std::to_string(100.0 * utilization).substr(0, 5) + " %"});
  t.add_row({"mean queue wait", format_duration(Seconds(mean_wait))});
  t.add_row({"events executed", std::to_string(sim.events_executed())});
  t.print(std::cout);
  std::printf("\nhost: %.0f events/sec (%.2f s for %.0f events)\n",
              host_s > 0 ? events / host_s : 0.0, host_s, events);

  rep.metric("prodload_year.simulated_days", sim_days, "days");
  rep.metric("prodload_year.jobs_submitted",
             static_cast<double>(nqs.jobs_submitted()));
  rep.metric("prodload_year.jobs_completed", completed);
  rep.metric("prodload_year.retries",
             static_cast<double>(gen.retries_emitted()));
  rep.metric("prodload_year.retries_abandoned",
             static_cast<double>(gen.retries_abandoned()));
  rep.metric("prodload_year.failures", static_cast<double>(failures));
  rep.metric("prodload_year.bursts", static_cast<double>(gen.bursts()));
  rep.metric("prodload_year.storms", static_cast<double>(gen.storms()));
  rep.metric("prodload_year.events", events);
  rep.metric("prodload_year.node_utilization", utilization);
  rep.metric("prodload_year.mean_wait_s", mean_wait, "s");
  rep.metric("prodload_year.mean_response_s", mean_response, "s");
  rep.metric("prodload_year.max_backlog",
             static_cast<double>(nqs.max_backlog()));
  rep.metric("prodload_year.peak_in_flight",
             static_cast<double>(peak_in_flight));
  rep.host_metric("prodload_year.events_per_sec",
                  host_s > 0 ? events / host_s : 0.0, "events/s");

  rep.expect_true("prodload_year.ran_full_horizon", sim_days >= days,
                  "the simulation must cover the configured horizon");
  rep.expect_true("prodload_year.drained", nqs.idle() && node.idle(),
                  "all submitted work must complete");
  rep.expect_true("prodload_year.stable",
                  utilization > 0.0 && utilization < 1.0 &&
                      nqs.max_backlog() < nqs.jobs_submitted(),
                  "the configured mix must keep the node stable");
  return rep.finish(std::cout);
}
