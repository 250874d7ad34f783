// Section 4.6 — PRODLOAD: the simulated production workload.
//
// Paper: "The NEC SX-4/32 completed the PRODLOAD benchmark in 93 minutes
// and 28 seconds (with the 9.2 ns clock)." — 5608 seconds.
//
// A job = HIPPI benchmark + three CCM2 copies (one 3-day T106, two 20-day
// T42) running simultaneously. Test 1: one sequence of four jobs. Test 2:
// two sequences concurrently. Test 3: four sequences concurrently. Test 4:
// two 2-day T170 runs concurrently. Component service times come from the
// CCM2 model (measured per-step simulated cost at each job's CPU width) and
// the HIPPI channel model; the discrete-event scheduler allocates the 32
// CPUs FIFO and applies the node's bank-contention slowdown.

#include <cstdio>
#include <iostream>

#include "ccm2/model.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "harness/reporter.hpp"
#include "harness/trace_report.hpp"
#include "iosim/hippi.hpp"
#include "prodload/scheduler.hpp"
#include "trace/collector.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace {

/// Quiet-machine service time of an n-day CCM2 run at `cpus` width.
ncar::Seconds ccm2_days(ncar::sxs::Node& node,
                        const ncar::ccm2::Resolution& res, int cpus,
                        double days) {
  ncar::ccm2::Ccm2Config c;
  c.res = res;
  c.active_levels = 1;
  ncar::ccm2::Ccm2 model(c, node);
  node.reset();
  // Service times need timing only — replay the charge sequence
  // (bit-identical seconds, see Ccm2::charge_step).
  const double per_step = model.measure_charge_seconds(cpus, 2);
  return ncar::Seconds(per_step * res.steps_per_day() * days);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncar;
  bench::BenchReporter rep("prodload", argc, argv);
  const auto cfg = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(cfg);

  // Scheduler track collector — declared ahead of the component
  // measurements so the streaming sink can cover every span of the run.
  trace::Collector sched_trace;
  // Streaming trace sink (SX4NCAR_TRACE=stream); inactive in other modes.
  // The scheduler rides along as its own pid, like the Chrome export.
  bench::StreamTrace stream(rep.aux_path("trace.sxt"), node, sched_trace,
                            "scheduler");

  // Component service times. CPU widths: T42 on 2 CPUs, T106 on 8, T170 on
  // 16 — the static Resource-Block style allocation of the benchmark run.
  const Seconds t42_20d = ccm2_days(node, ccm2::t42l18(), 2, 20.0);
  const Seconds t106_3d = ccm2_days(node, ccm2::t106l18(), 8, 3.0);
  const Seconds t170_2d = ccm2_days(node, ccm2::t170l18(), 16, 2.0);

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
  // Scheduler track: one span per completed job (start .. completion in
  // simulated seconds). The four tests each restart at t=0, so the Gantt
  // rows of a test overlay the previous test's — read them per-test.
  sched.set_trace(&sched_trace);

  const Seconds test1 = sched.run({make_seq("seq1")}).makespan;
  const Seconds test2 =
      sched.run({make_seq("seq1"), make_seq("seq2")}).makespan;
  const Seconds test3 = sched.run({make_seq("seq1"), make_seq("seq2"),
                                   make_seq("seq3"), make_seq("seq4")})
                            .makespan;

  prodload::Sequence t170a{"t170a", {{"T170 2-day", {{"CCM2 T170", 16, t170_2d}}}}};
  prodload::Sequence t170b{"t170b", {{"T170 2-day", {{"CCM2 T170", 16, t170_2d}}}}};
  const Seconds test4 = sched.run({t170a, t170b}).makespan;

  const Seconds total = test1 + test2 + test3 + test4;

  print_banner(std::cout, "PRODLOAD: simulated production job load, SX-4/32");
  Table c({"Component", "CPUs", "Service time"});
  c.add_row({"HIPPI test", "1", format_duration(hippi_test)});
  c.add_row({"CCM2 T42L18, 20 days", "2", format_duration(t42_20d)});
  c.add_row({"CCM2 T106L18, 3 days", "8", format_duration(t106_3d)});
  c.add_row({"CCM2 T170L18, 2 days", "16", format_duration(t170_2d)});
  c.print(std::cout);

  std::cout << '\n';
  Table t({"Test", "Composition", "Wall clock"});
  t.add_row({"1", "1 sequence of 4 jobs", format_duration(test1)});
  t.add_row({"2", "2 sequences concurrent", format_duration(test2)});
  t.add_row({"3", "4 sequences concurrent", format_duration(test3)});
  t.add_row({"4", "2 x CCM2 T170 2-day concurrent", format_duration(test4)});
  t.add_row({"total", "", format_duration(total)});
  t.print(std::cout);

  rep.metric("prodload.test1_seconds", test1.value(), "s");
  rep.metric("prodload.test2_seconds", test2.value(), "s");
  rep.metric("prodload.test3_seconds", test3.value(), "s");
  rep.metric("prodload.test4_seconds", test4.value(), "s");

  const Seconds paper(93 * 60 + 28);
  const double ratio = total / paper;  // Seconds / Seconds: dimensionless
  std::printf("\ntotal: %s (paper: 93m 28s), ratio %.3f\n",
              format_duration(total).c_str(), ratio);
  const bool within = ratio > 0.75 && ratio < 1.25;
  std::printf("within 25%% of the paper: %s\n", within ? "yes" : "NO");
  rep.expect("prodload.total_seconds", total.value(),
             bench::Band::relative(paper.value(), 0.25),
             "paper section 4.6: 93m 28s with the 9.2 ns clock", "s");
  rep.cost_cache_counters(static_cast<double>(node.cost_cache_hits()),
                          static_cast<double>(node.cost_cache_misses()));
  // Node attribution covers the T170 service-time measurement (the last
  // node.reset()); the scheduler track totals job-seconds across all tests.
  bench::print_attribution(std::cout, node);
  bench::report_attribution(rep, "prodload", node);
  bench::report_attribution(rep, "prodload.scheduler", sched_trace, "seconds");
  stream.finish(rep);
  return rep.finish(std::cout);
}
