// bench_gate — CI gate over the bench result files.
//
// Diffs bench/results/*.json (a fresh run) against bench/baselines/*.json
// (committed) with a 2% symmetric relative tolerance, re-checks every
// recorded paper expectation, and writes one BENCH_SUMMARY.json roll-up.
// Exit 0 = clean; 1 = regression / missing metric / failed expectation;
// 2 = unusable configuration.
//
//   bench_gate --results build/bench/results --baselines bench/baselines
//              --summary build/bench/BENCH_SUMMARY.json
//
// `--update-baselines` regenerates the committed baselines from a results
// directory (used after an intentional model change; see README.md).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/gate.hpp"

namespace {

[[noreturn]] void usage(int exit_code) {
  std::FILE* out = exit_code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: bench_gate [options]\n"
               "  --results <dir>     bench result JSONs (default "
               "bench/results)\n"
               "  --baselines <dir>   committed baselines (default "
               "bench/baselines)\n"
               "  --summary <path>    write roll-up JSON (default "
               "BENCH_SUMMARY.json next to --results)\n"
               "  --update-baselines  rewrite baselines from results\n"
               "  --help              this message\n");
  std::exit(exit_code);
}

}  // namespace

int main(int argc, char** argv) {
  ncar::bench::GateOptions opts;
  opts.results_dir = "bench/results";
  opts.baselines_dir = "bench/baselines";
  bool summary_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_gate: %s needs a value\n", arg.c_str());
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--results") opts.results_dir = value();
    else if (arg == "--baselines") opts.baselines_dir = value();
    else if (arg == "--summary") {
      opts.summary_path = value();
      summary_set = true;
    } else if (arg == "--update-baselines") opts.update_baselines = true;
    else if (arg == "--help" || arg == "-h") usage(0);
    else {
      std::fprintf(stderr, "bench_gate: unknown option %s\n", arg.c_str());
      usage(2);
    }
  }
  if (!summary_set && !opts.update_baselines) {
    opts.summary_path = opts.results_dir + "/../BENCH_SUMMARY.json";
  }

  return ncar::bench::run_gate(opts, std::cout);
}
