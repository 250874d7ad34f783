// Span tracer, metrics and statistics helpers of the host benchmark.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace hostbench {

namespace {

struct OpInfo {
  const char* name;
  const char* layer;
};

// Indexed by Op; keep in enum order. charge_step only prices a step on the
// node, so its time is sxs pricing time.
constexpr OpInfo kOps[kOpCount] = {
    {"ccm2.step", "ccm2"},
    {"ccm2.charge_step", "sxs"},
    {"ocean.step", "ocean"},
    {"ocean.charge_step", "sxs"},
    {"sxs.node_reset", "sxs"},
    {"machines.run_sweep", "machines"},
    {"des.start", "des"},
    {"des.run_until", "des"},
    {"des.run", "des"},
    {"des.failure", "des"},
    {"prodload.submit", "prodload"},
};

}  // namespace

const char* to_string(Size s) { return s == Size::Full ? "full" : "tiny"; }

const char* op_name(Op op) { return kOps[static_cast<int>(op)].name; }
const char* op_layer(Op op) { return kOps[static_cast<int>(op)].layer; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, value, unit});
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int digits = 1; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::vector<double> Tracer::durations(Op op) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.op == op) out.push_back(static_cast<double>(s.t1 - s.t0) * 1e-9);
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[op_layer(s.op)] += static_cast<double>(s.t1 - s.t0 - child[i]) * 1e-9;
  }
  return out;
}

void Tracer::write(const std::string& path, const std::string& title) const {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "# " << title << ": " << spans_.size()
      << " spans (op parent t0_ns t1_ns)\n";
  for (const Span& s : spans_) {
    out << op_name(s.op) << ' ' << s.parent << ' ' << s.t0 << ' ' << s.t1
        << '\n';
  }
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace hostbench
