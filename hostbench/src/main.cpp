// hostbench_driver — host-time benchmark of the sx4ncar simulator.
//
//   hostbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|tiny] [--expected PATH]
//                    [--record-expected PATH] [--out-dir DIR]
//
// --trace 0 runs one workload with tracing off: set-up several times, then
// fixed-size rounds until S seconds have passed, verifying every round. It
// reports setup_s (median set-up), wall_s (median round), units_per_s and
// peak_rss_mb. --trace 1 measures every layer instead: a short slice of each
// workload, untraced and traced rounds interleaved, plus the layer probes;
// it reports the per-layer metrics and the fold of layer self times into
// the traced wall. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count the oracle's checks (fail_frac =
// failed / attempted).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "probes.hpp"
#include "simd/simd.hpp"
#include "trace/category.hpp"
#include "workloads.hpp"

extern char** environ;

namespace hostbench {

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value after " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') throw UsageError("bad --seed " + v);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) {
        throw UsageError("bad --seconds " + v);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw UsageError("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") throw UsageError("--size full|tiny");
      o.size = v == "full" ? Size::Full : Size::Tiny;
    } else if (a == "--expected") {
      o.expected_path = v;
    } else if (a == "--record-expected") {
      o.record_path = v;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      throw UsageError("unknown argument " + a);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == o.workload;
  if (!known) throw UsageError("unknown workload '" + o.workload + "'");
  return o;
}

/// The timed configuration is pinned: tracing off, SIMD auto, one host
/// thread per affinity CPU. Any other SX4NCAR_* setting would silently
/// change what is measured, so it stops the run instead.
void pin_environment(int threads) {
  const std::string pinned_threads = std::to_string(threads);
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("SX4NCAR_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    const std::string name = kv.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : kv.substr(eq + 1);
    if (name == "SX4NCAR_SIMD" && value == "auto") continue;
    if (name == "SX4NCAR_HOST_THREADS" && value == pinned_threads) continue;
    throw UsageError("refusing to run with " + kv +
                     " set: the benchmark pins SX4NCAR_SIMD=auto, "
                     "SX4NCAR_HOST_THREADS=" + pinned_threads +
                     " and tracing off; unset it");
  }
  // Any lazily created global pool gets the same width as ours.
  setenv("SX4NCAR_HOST_THREADS", pinned_threads.c_str(), 1);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Live threads of this process (the Threads: line of /proc/self/status).
int live_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string manifest(const Options& o, int peak_threads) {
  std::ostringstream m;
  m << "{\"workload\": " << json_string(o.workload)
    << ", \"seed\": " << o.seed
    << ", \"expected_values\": "
    << json_string(oracle().exact_seed() ? "bit-exact + self-consistency"
                                         : "self-consistency")
    << ", \"size\": " << json_string(to_string(o.size))
    << ", \"seconds\": " << format_double(o.seconds)
    << ", \"traced\": " << (o.trace ? "true" : "false")
    << ", \"host_threads\": " << o.threads
    << ", \"peak_live_threads\": " << peak_threads
    << ", \"nproc\": " << o.threads
    << ", \"simd_active\": "
    << json_string(ncar::simd::to_string(ncar::simd::active()))
    << ", \"trace_mode\": "
    << json_string(ncar::trace::to_string(ncar::trace::mode()))
    << ", \"cpu_model\": " << json_string(cpu_model())
    << ", \"compiler\": " << json_string(std::string("g++ ") + __VERSION__)
    << ", \"build_type\": " << json_string(HOSTBENCH_BUILD_TYPE) << "}";
  return m.str();
}

std::string result_json(const Metrics& metrics) {
  const Oracle& o = oracle();
  std::ostringstream r;
  r << "{\"correct\": " << (o.failed() == 0 ? "true" : "false")
    << ", \"attempted\": " << o.attempted() << ", \"failed\": " << o.failed()
    << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    r << (first ? "" : ", ") << json_string(m.name)
      << ": {\"value\": " << format_double(m.value)
      << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  r << "}}";
  return r.str();
}

class ThreadWatch {
public:
  void sample() { peak_ = std::max(peak_, live_threads()); }
  int peak() const { return peak_; }

private:
  int peak_ = 0;
};

/// Timed set-ups, then timed rounds of one workload until opt.seconds have
/// passed (at least kMinRounds), each verified untimed; tracing off.
void run_timed(const Options& opt, ncar::ThreadPool& pool, ThreadWatch& tw,
               Metrics& out) {
  const Context ctx{opt, pool};
  std::unique_ptr<Workload> w = make_workload(opt.workload, ctx);
  constexpr int kMinRounds = 3;
  std::vector<double> setups, rounds;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
  };
  if (!w->setup_each_round()) {
    for (int i = 0; i < w->setup_reps(); ++i) timed_setup();
  }
  tw.sample();
  std::vector<double> rates;  // units per second of each round
  const auto start = Clock::now();
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         seconds_since(start) < opt.seconds) {
    if (w->setup_each_round()) timed_setup();
    w->prepare();
    const auto t0 = Clock::now();
    const double units = w->round();
    const double dt = seconds_since(t0);
    rounds.push_back(dt);
    rates.push_back(units / dt);
    w->check();
  }
  tw.sample();
  w.reset();

  const double setup_s = median(setups);
  const double wall_s = median(rounds);
  const double per_s = median(rates);
  const double rss = peak_rss_mib();
  out.add("setup_s", setup_s, "s");
  out.add("wall_s", wall_s, "s");
  out.add("units_per_s", per_s, "1/s");
  out.add("peak_rss_mb", rss, "MiB");

  const Oracle& o = oracle();
  const double fail_frac = static_cast<double>(o.failed()) /
                           static_cast<double>(std::max<std::uint64_t>(
                               o.attempted(), 1));
  std::printf(
      "summary %s seed=%llu: setup_s %.6g s (median of %zu), wall_s %.6g s "
      "(median of %zu rounds), units_per_s %.6g 1/s, peak_rss_mb %.6g MiB, "
      "fail_frac %.6g ratio (%llu of %llu checks failed)\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      setup_s, setups.size(), wall_s, rounds.size(), per_s, rss, fail_frac,
      static_cast<unsigned long long>(o.failed()),
      static_cast<unsigned long long>(o.attempted()));
}

/// Slice sizes of the traced run: (untraced, traced) round pairs.
int slice_rounds(const std::string& workload, Size size) {
  if (size == Size::Tiny) return 1;
  if (workload == "charge_replay") return 7;
  if (workload == "design_sweep") return 3;
  if (workload == "prodload_year") return 1;
  return 2;
}

/// Every layer: a slice of each workload plus the layer probes.
void run_traced(const Options& opt, ThreadWatch& tw, Metrics& out,
                const std::string& span_path) {
  // The speed-up curve builds its own pools; run it before ours exists.
  thread_pool_speedup(opt, out);
  tw.sample();
  ncar::ThreadPool pool(opt.threads);
  tw.sample();
  layer_probes(out);

  if (!span_path.empty()) std::ofstream(span_path, std::ios::trunc);
  const Context ctx{opt, pool};
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> w = make_workload(name, ctx);
    w->setup();
    Tracer& tr = tracer();
    tr.clear();
    std::vector<double> untraced, traced;
    for (int r = 0; r < slice_rounds(name, opt.size); ++r) {
      for (const bool on : {false, true}) {
        if (w->setup_each_round()) w->setup();
        w->prepare();
        tr.set_active(on);
        const auto t0 = Clock::now();
        (void)w->round();
        const double dt = seconds_since(t0);
        tr.set_active(false);
        (on ? traced : untraced).push_back(dt);
        w->check();
      }
    }
    tw.sample();
    double traced_wall = 0;
    for (const double t : traced) traced_wall += t;
    const std::map<std::string, double> self = tr.self_seconds();
    double folded = 0;
    for (const std::string& layer : w->layers()) {
      const auto it = self.find(layer);
      const double s = it == self.end() ? 0.0 : it->second;
      folded += s;
      out.add(name + ".self_frac." + layer, s / traced_wall, "ratio");
    }
    out.add(name + ".other_frac", (traced_wall - folded) / traced_wall,
            "ratio");
    out.add(name + ".traced_round_s", median(traced), "s");
    out.add(name + ".untraced_round_s", median(untraced), "s");
    out.add(name + ".trace_overhead", median(traced) / median(untraced) - 1.0,
            "ratio");
    w->probe(out);
    if (!span_path.empty()) tr.write(span_path, name);
    tr.clear();
  }
  tw.sample();
}

int run(int argc, char** argv) {
  Options opt = parse(argc, argv);
  opt.threads = affinity_cpus();
  pin_environment(opt.threads);

  const bool recording = !opt.record_path.empty();
  if (!opt.expected_path.empty() && !recording) {
    oracle().load(opt.expected_path);
  }
  oracle().configure(opt.seed, opt.size, recording);

  ThreadWatch tw;
  tw.sample();
  Metrics metrics;
  if (opt.trace) {
    run_traced(opt, tw, metrics,
               opt.out_dir.empty() ? std::string()
                                   : opt.out_dir + "/" + opt.workload +
                                         "-trace1.spans");
  } else {
    ncar::ThreadPool pool(opt.threads);
    run_timed(opt, pool, tw, metrics);
  }
  oracle().check(tw.peak() <= opt.threads,
                 "host threads " + std::to_string(tw.peak()) +
                     " exceed the affinity CPU count " +
                     std::to_string(opt.threads));
  if (recording) oracle().write_recorded(opt.record_path);

  std::printf("manifest %s\n", manifest(opt, tw.peak()).c_str());
  std::printf("%s\n", result_json(metrics).c_str());
  return 0;
}

}  // namespace

}  // namespace hostbench

int main(int argc, char** argv) {
  try {
    return hostbench::run(argc, argv);
  } catch (const hostbench::UsageError& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: error: %s\n", e.what());
    return 1;
  }
}
