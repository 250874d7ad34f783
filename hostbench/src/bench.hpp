#pragma once
// Shared pieces of the host benchmark driver: options, the verification
// oracle, span tracing, metrics and small statistics helpers.
//
// All host time is read from std::chrono::steady_clock, here and only here
// (now_ns / seconds_since); the library under test never sees it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

// --- options -----------------------------------------------------------------

enum class Size { Full, Tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::Full;
  std::string expected_path;  ///< stored expected values (may be empty)
  std::string record_path;    ///< write observed values here instead
  std::string out_dir;        ///< where the traced run writes its spans
  int threads = 1;            ///< host threads (affinity CPU count)
};

const char* to_string(Size s);

// --- clock -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- statistics --------------------------------------------------------------

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// Wall time of `fn` in seconds.
template <class F>
double time_of(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Median wall time of `reps` calls of `fn`, in seconds.
template <class F>
double median_time(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(time_of(fn));
  return median(t);
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }

private:
  std::vector<Metric> items_;
};

/// Shortest decimal that round-trips to the same double.
std::string format_double(double v);

// --- verification oracle -----------------------------------------------------
//
// Simulated results are deterministic and bit-exact, so they are the
// correctness oracle. Two kinds of check feed one attempted/failed count:
//   * check(): self-consistency that must hold for every seed;
//   * expect(): bit-exact comparison against the stored expected values,
//     applied when the run's seed is the seed the values were recorded for.

class Oracle {
public:
  /// Read "seed N" and "<key> <value>" lines; '#' starts a comment.
  /// Throws std::runtime_error on a malformed file.
  void load(const std::string& path);
  void configure(std::uint64_t seed, Size size, bool recording);

  void check(bool ok, const std::string& what);
  void expect(const std::string& key, double actual);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool exact_seed() const { return exact_; }

  /// Merge the recorded values into `path` (keys of other sizes and
  /// workloads already there are kept).
  void write_recorded(const std::string& path) const;

private:
  std::map<std::string, double> expected_;
  std::map<std::string, double> recorded_;
  bool have_seed_ = false;
  std::uint64_t expected_seed_ = 0;
  std::uint64_t seed_ = 0;
  std::string prefix_;
  bool exact_ = false;
  bool recording_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reported_ = 0;
};

Oracle& oracle();

// --- span tracing --------------------------------------------------------------
//
// The traced run records a span around each call the benchmark makes into a
// layer's public API. Spans nest (a callback from inside one layer that
// calls another opens a child span), live in memory, and are written out at
// the end. A layer's self time is its spans' durations minus their
// children's. When the tracer is inactive a SpanScope costs one branch.

enum class Op : std::uint8_t {
  Ccm2Step,
  Ccm2Charge,
  OceanStep,
  OceanCharge,
  SxsReset,
  MachinesSweep,
  DesStart,
  DesRunUntil,
  DesRun,
  DesFailure,
  ProdloadSubmit,
};

inline constexpr int kOpCount = static_cast<int>(Op::ProdloadSubmit) + 1;

const char* op_name(Op op);   ///< e.g. "ccm2.step"
const char* op_layer(Op op);  ///< e.g. "ccm2"

struct Span {
  Op op = Op::Ccm2Step;
  std::int32_t parent = -1;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

class Tracer {
public:
  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }

  int open(Op op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({op, parent, now_ns(), 0});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now_ns();
    stack_.pop_back();
  }

  /// Durations (seconds) of every span of `op`.
  std::vector<double> durations(Op op) const;
  /// Self time (seconds) per layer name over all recorded spans.
  std::map<std::string, double> self_seconds() const;
  void clear() { spans_.clear(); }

  /// Append the spans as "op parent t0_ns t1_ns" lines under a header.
  void write(const std::string& path, const std::string& title) const;

private:
  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

class SpanScope {
public:
  explicit SpanScope(Op op)
      : id_(tracer().active() ? tracer().open(op) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) tracer().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  int id_;
};

}  // namespace hostbench
