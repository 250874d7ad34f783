#include "machines/sweep.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hint/hint.hpp"
#include "radabs/radabs.hpp"

namespace ncar::machines {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ncar::config_error(message);
}

}  // namespace

// ---------------------------------------------------------------------------
// Grid

Grid::Grid(MachineDescription base, std::vector<Axis> axes)
    : base_(std::move(base)), axes_(std::move(axes)), size_(1) {
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const Axis& axis = axes_[a];
    if (!known_key(axis.key)) {
      fail("sweep axis: unknown key '" + axis.key + "'");
    }
    if (axis.values.empty()) {
      fail("sweep axis '" + axis.key + "': no values");
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (axes_[b].key == axis.key) {
        fail("sweep axis '" + axis.key + "': duplicate axis");
      }
    }
    if (size_ > std::numeric_limits<std::size_t>::max() / axis.values.size()) {
      fail("sweep grid: size overflows");
    }
    size_ *= axis.values.size();
  }
}

std::vector<std::size_t> Grid::coordinates(std::size_t index) const {
  NCAR_REQUIRE(index < size_, "grid index out of range");
  std::vector<std::size_t> coords(axes_.size());
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    coords[a] = index % axes_[a].values.size();
    index /= axes_[a].values.size();
  }
  return coords;
}

std::vector<double> Grid::values(std::size_t index) const {
  const std::vector<std::size_t> coords = coordinates(index);
  std::vector<double> out(axes_.size());
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    out[a] = axes_[a].values[coords[a]];
  }
  return out;
}

MachineDescription Grid::config(std::size_t index) const {
  const std::vector<std::size_t> coords = coordinates(index);
  MachineDescription d = base_;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    d.set(axes_[a].key, axes_[a].values[coords[a]]);
  }
  return d;
}

std::size_t Grid::neighbor(std::size_t index, std::size_t axis) const {
  NCAR_REQUIRE(axis < axes_.size(), "grid axis out of range");
  const std::vector<std::size_t> coords = coordinates(index);
  if (coords[axis] + 1 >= axes_[axis].values.size()) return size_;
  std::size_t stride = 1;
  for (std::size_t a = 0; a < axis; ++a) stride *= axes_[a].values.size();
  return index + stride;
}

// ---------------------------------------------------------------------------
// Probe recording

double Probe::total_charges() const {
  double total = 0;
  for (const ProbeOp& op : ops) {
    total += op.kind == ProbeOp::Kind::Vector
                 ? static_cast<double>(op.repeats)
                 : 1.0;
  }
  return total;
}

std::vector<std::string> probe_kernels() { return {"radabs", "hint", "vfft"}; }

namespace {

/// OpSink that appends every charge to a probe's op list.
class Recorder final : public OpSink {
public:
  explicit Recorder(std::vector<ProbeOp>& out) : out_(&out) {}

  void on_vec(const sxs::VectorOp& op, long repeats) override {
    ProbeOp p;
    p.kind = ProbeOp::Kind::Vector;
    p.vec = op;
    p.repeats = repeats;
    out_->push_back(p);
  }
  void on_scalar(const sxs::ScalarOp& op) override {
    ProbeOp p;
    p.kind = ProbeOp::Kind::Scalar;
    p.scalar = op;
    out_->push_back(p);
  }
  void on_intrinsic(sxs::Intrinsic f, long n) override {
    ProbeOp p;
    p.kind = ProbeOp::Kind::Intrinsic;
    p.f = f;
    p.calls = n;
    out_->push_back(p);
  }

private:
  std::vector<ProbeOp>* out_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const sxs::VectorOp& a, const sxs::VectorOp& b) {
  return a.n == b.n && same_bits(a.flops_per_elem, b.flops_per_elem) &&
         same_bits(a.div_per_elem, b.div_per_elem) &&
         same_bits(a.load_words, b.load_words) &&
         same_bits(a.store_words, b.store_words) &&
         same_bits(a.gather_words, b.gather_words) &&
         same_bits(a.scatter_words, b.scatter_words) &&
         a.load_stride == b.load_stride && a.store_stride == b.store_stride &&
         a.pipe_groups == b.pipe_groups && a.instructions == b.instructions;
}

bool same_bits(const sxs::ScalarOp& a, const sxs::ScalarOp& b) {
  return a.iters == b.iters && same_bits(a.flops_per_iter, b.flops_per_iter) &&
         same_bits(a.mem_words_per_iter, b.mem_words_per_iter) &&
         same_bits(a.other_ops_per_iter, b.other_ops_per_iter) &&
         same_bits(a.working_set_bytes, b.working_set_bytes) &&
         same_bits(a.reuse_fraction, b.reuse_fraction);
}

/// Whether `a` and `b` price identically on every machine: the same kind
/// with a bitwise-equal descriptor (the repeat count is a charge detail).
bool same_descriptor(const ProbeOp& a, const ProbeOp& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ProbeOp::Kind::Vector: return same_bits(a.vec, b.vec);
    case ProbeOp::Kind::Scalar: return same_bits(a.scalar, b.scalar);
    case ProbeOp::Kind::Intrinsic: return a.f == b.f && a.calls == b.calls;
  }
  return false;
}

/// Point every op of `probe` at its descriptor in probe.distinct. A linear
/// scan: probes hold at most a few dozen distinct descriptors.
void intern(Probe& probe) {
  for (ProbeOp& op : probe.ops) {
    std::size_t slot = 0;
    while (slot < probe.distinct.size() &&
           !same_descriptor(probe.distinct[slot], op)) {
      ++slot;
    }
    if (slot == probe.distinct.size()) {
      probe.distinct.push_back(op);
      probe.distinct.back().repeats = 1;
      probe.distinct.back().slot = slot;
    }
    op.slot = slot;
  }
}

Probe record(std::string_view kernel) {
  Probe probe;
  probe.kernel = std::string(kernel);
  if (kernel == "vfft") {
    // The VFFT charging structure for n = 256 over m = 128 instances
    // (fft/style_bench.cpp): eight radix-2 stages, each butterfly one
    // unit-stride vector op across the instances, n/f butterflies per
    // stage. Emitted directly because run_vfft charges a bare sxs::Cpu.
    for (int stage = 0; stage < 8; ++stage) {
      ProbeOp op;
      op.kind = ProbeOp::Kind::Vector;
      op.vec.n = 128;
      op.vec.flops_per_elem = 5.0;  // 0.5 * radix-2 butterfly flops
      op.vec.load_words = 2.0;
      op.vec.store_words = 2.0;
      op.vec.pipe_groups = 2;
      op.repeats = 128;  // 256 / 2 butterflies per stage
      probe.ops.push_back(op);
    }
  } else {
    // Run the kernel's numerics once against the SX-4 with a recorder
    // attached; the captured stream is the *logical* charges, so replaying
    // it against scalar machines still takes their scalar fallback path.
    Comparator machine(Comparator::nec_sx4_single());
    Recorder recorder(probe.ops);
    machine.set_op_sink(&recorder);
    if (kernel == "radabs") {
      (void)radabs::run_radabs_standard(machine);
    } else {
      (void)hint::run_hint(machine, 50'000);
    }
  }
  intern(probe);
  return probe;
}

}  // namespace

const Probe& record_probe(std::string_view kernel) {
  // One function-local static per kernel: recorded on first use, once per
  // process, thread-safe under concurrent first calls.
  if (kernel == "radabs") {
    static const Probe radabs = record("radabs");
    return radabs;
  }
  if (kernel == "hint") {
    static const Probe hint = record("hint");
    return hint;
  }
  if (kernel == "vfft") {
    static const Probe vfft = record("vfft");
    return vfft;
  }
  fail("record_probe: unknown kernel '" + std::string(kernel) +
       "' (known: radabs, hint, vfft)");
}

// ---------------------------------------------------------------------------
// Replay

namespace {

Comparator::Price price(Comparator& machine, const ProbeOp& op) {
  switch (op.kind) {
    case ProbeOp::Kind::Vector: return machine.price(op.vec);
    case ProbeOp::Kind::Scalar: return machine.price(op.scalar);
    case ProbeOp::Kind::Intrinsic: break;
  }
  return machine.price(op.f, op.calls);
}

}  // namespace

Replay replay_probe(const Probe& probe, const Spec& spec) {
  Comparator machine(spec);
  // Price each distinct descriptor once on this spec, then charge the
  // recorded sequence in order from the table.
  std::vector<Comparator::Price> prices;
  prices.reserve(probe.distinct.size());
  for (const ProbeOp& d : probe.distinct) prices.push_back(price(machine, d));
  for (const ProbeOp& op : probe.ops) {
    NCAR_REQUIRE(op.slot < prices.size(), "probe op outside its price table");
    machine.charge(prices[op.slot], op.repeats);
  }
  Replay r;
  r.seconds = machine.seconds().value();
  r.hw_flops = machine.hw_flops().value();
  r.cache_misses = prices.size();
  r.cache_hits = probe.ops.size() - prices.size();
  return r;
}

// ---------------------------------------------------------------------------
// Classification twins

namespace {

/// Memory twin: same machine with the per-CPU memory port twice as wide.
MachineDescription memory_twin(const MachineDescription& d) {
  const sxs::MachineConfig defaults;
  MachineDescription t = d;
  t.set("port_bytes_per_clock",
        2.0 * t.get_or("port_bytes_per_clock",
                       defaults.port_bytes_per_clock.value()));
  return t;
}

/// Compute twin: same machine with twice the arithmetic pipes (vector
/// length bumped to the next multiple when the doubling breaks the
/// VL-divides-pipes constraint).
MachineDescription compute_twin(const MachineDescription& d) {
  const sxs::MachineConfig defaults;
  MachineDescription t = d;
  const double pipes =
      2.0 * t.get_or("pipes_per_group",
                     static_cast<double>(defaults.pipes_per_group));
  double vl =
      t.get_or("vector_length", static_cast<double>(defaults.vector_length));
  vl = std::ceil(vl / pipes) * pipes;
  t.set("pipes_per_group", pipes);
  t.set("vector_length", vl);
  return t;
}

/// Speedup of a twin over the base time; an unloverable twin gains 1.0
/// (the perturbation fell off the valid design space, so it cannot help).
double twin_gain(const Probe& probe, const MachineDescription& twin,
                 double base_seconds, PointResult& p) {
  try {
    const Replay r = replay_probe(probe, twin.lower());
    p.cache_hits += r.cache_hits;
    p.cache_misses += r.cache_misses;
    return r.seconds > 0 ? base_seconds / r.seconds : 1.0;
  } catch (const ncar::config_error&) {
    return 1.0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Sweep

std::size_t SweepReport::valid_count() const {
  std::size_t n = 0;
  for (const PointResult& p : points) n += p.valid ? 1 : 0;
  return n;
}

std::size_t SweepReport::memory_bound_count() const {
  std::size_t n = 0;
  for (const PointResult& p : points) n += (p.valid && p.memory_bound) ? 1 : 0;
  return n;
}

const PointResult* SweepReport::fastest() const {
  const PointResult* best = nullptr;
  for (const PointResult& p : points) {
    if (!p.valid) continue;
    if (best == nullptr || p.seconds < best->seconds) best = &p;
  }
  return best;
}

SweepReport run_sweep(const Grid& grid, const SweepOptions& opts) {
  NCAR_REQUIRE(grid.size() >= 1, "empty sweep grid");
  NCAR_REQUIRE(grid.size() <=
                   static_cast<std::size_t>(std::numeric_limits<int>::max()),
               "sweep grid too large");
  SweepReport rep;
  rep.kernel = opts.kernel;
  rep.base = grid.base();
  rep.axes = grid.axes();
  rep.points.resize(grid.size());

  const Probe& probe = record_probe(opts.kernel);

  // Bounded-memory witness: each in-flight point owns one replay workspace
  // (a Comparator + its price table); the peak gauge can never exceed the
  // host thread count, no matter the grid size.
  std::atomic<int> live{0};
  std::atomic<int> peak{0};

  auto evaluate = [&](int i) {
    const int now = live.fetch_add(1) + 1;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }

    const std::size_t index = static_cast<std::size_t>(i);
    PointResult& p = rep.points[index];
    p.index = index;
    p.values = grid.values(index);
    const MachineDescription d = grid.config(index);
    try {
      const Spec spec = d.lower();
      const Replay base = replay_probe(probe, spec);
      p.valid = true;
      p.seconds = base.seconds;
      p.hw_mflops =
          base.seconds > 0 ? base.hw_flops / base.seconds / 1e6 : 0.0;
      p.cache_hits = base.cache_hits;
      p.cache_misses = base.cache_misses;
      p.memory_gain = twin_gain(probe, memory_twin(d), base.seconds, p);
      p.compute_gain = twin_gain(probe, compute_twin(d), base.seconds, p);
      // Ties go to memory: on a balanced point more bandwidth is the
      // paper's answer (section 2.2), and the rule keeps the label a pure
      // function of the two gains.
      p.memory_bound = p.memory_gain >= p.compute_gain;
    } catch (const ncar::config_error& e) {
      p.valid = false;
      p.error = e.what();
    }
    live.fetch_sub(1);
  };

  const int n = static_cast<int>(grid.size());
  if (opts.policy == sxs::ExecutionPolicy::Threaded) {
    ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
    pool.parallel_for(n, evaluate);
  } else {
    for (int i = 0; i < n; ++i) evaluate(i);
  }

  for (const PointResult& p : rep.points) {
    rep.cache_hits += p.cache_hits;
    rep.cache_misses += p.cache_misses;
  }
  rep.peak_live_workspaces = peak.load();

  // Flip boundary: forward edges whose endpoints disagree on the label.
  for (std::size_t i = 0; i < rep.points.size(); ++i) {
    if (!rep.points[i].valid) continue;
    for (std::size_t a = 0; a < rep.axes.size(); ++a) {
      const std::size_t nb = grid.neighbor(i, a);
      if (nb >= rep.points.size() || !rep.points[nb].valid) continue;
      if (rep.points[i].memory_bound != rep.points[nb].memory_bound) {
        rep.flips.push_back({i, nb, rep.axes[a].key});
      }
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Deterministic JSON report

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  out += std::isfinite(v) ? format_number(v) : "null";
}

}  // namespace

std::string SweepReport::to_json() const {
  std::string j = "{\n  \"kernel\": ";
  append_escaped(j, kernel);

  j += ",\n  \"base\": {\n    \"name\": ";
  append_escaped(j, base.name);
  for (const auto& [key, value] : base.entries) {
    j += ",\n    ";
    append_escaped(j, key);
    j += ": ";
    append_number(j, value);
  }
  j += "\n  },\n  \"axes\": [";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    j += a == 0 ? "\n" : ",\n";
    j += "    {\"key\": ";
    append_escaped(j, axes[a].key);
    j += ", \"values\": [";
    for (std::size_t v = 0; v < axes[a].values.size(); ++v) {
      if (v != 0) j += ", ";
      append_number(j, axes[a].values[v]);
    }
    j += "]}";
  }
  j += "\n  ],\n  \"grid_size\": " + format_number(static_cast<double>(points.size()));
  j += ",\n  \"valid_points\": " +
       format_number(static_cast<double>(valid_count()));
  j += ",\n  \"memory_bound_points\": " +
       format_number(static_cast<double>(memory_bound_count()));
  j += ",\n  \"compute_bound_points\": " +
       format_number(static_cast<double>(valid_count() - memory_bound_count()));
  j += ",\n  \"flip_edges\": " +
       format_number(static_cast<double>(flips.size()));
  j += ",\n  \"cost_cache\": {\"hits\": " +
       format_number(static_cast<double>(cache_hits)) +
       ", \"misses\": " + format_number(static_cast<double>(cache_misses)) +
       "}";

  if (const PointResult* best = fastest()) {
    j += ",\n  \"fastest\": {\"index\": " +
         format_number(static_cast<double>(best->index)) + ", \"seconds\": ";
    append_number(j, best->seconds);
    j += ", \"hw_mflops\": ";
    append_number(j, best->hw_mflops);
    j += "}";
  }

  j += ",\n  \"flips\": [";
  for (std::size_t f = 0; f < flips.size(); ++f) {
    j += f == 0 ? "\n" : ",\n";
    j += "    {\"from\": " + format_number(static_cast<double>(flips[f].from)) +
         ", \"to\": " + format_number(static_cast<double>(flips[f].to)) +
         ", \"axis\": ";
    append_escaped(j, flips[f].axis);
    j += "}";
  }
  j += flips.empty() ? "],\n" : "\n  ],\n";

  j += "  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"index\": " + format_number(static_cast<double>(p.index)) +
         ", \"values\": [";
    for (std::size_t v = 0; v < p.values.size(); ++v) {
      if (v != 0) j += ", ";
      append_number(j, p.values[v]);
    }
    j += "], ";
    if (!p.valid) {
      j += "\"valid\": false, \"error\": ";
      append_escaped(j, p.error);
      j += "}";
      continue;
    }
    j += "\"valid\": true, \"seconds\": ";
    append_number(j, p.seconds);
    j += ", \"hw_mflops\": ";
    append_number(j, p.hw_mflops);
    j += ", \"memory_gain\": ";
    append_number(j, p.memory_gain);
    j += ", \"compute_gain\": ";
    append_number(j, p.compute_gain);
    j += ", \"memory_bound\": ";
    j += p.memory_bound ? "true" : "false";
    j += "}";
  }
  j += points.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return j;
}

}  // namespace ncar::machines
