#include "sxs/node.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ncar::sxs {

namespace {

/// Restores a Cpu's contention factor to 1.0 when the region body exits,
/// even by exception — otherwise a throwing body would leave the factor
/// stuck and poison every later region on that Cpu.
class ContentionScope {
public:
  ContentionScope(Cpu& cpu, double factor) : cpu_(cpu) {
    cpu_.set_contention(factor);
  }
  ~ContentionScope() { cpu_.set_contention(1.0); }

  ContentionScope(const ContentionScope&) = delete;
  ContentionScope& operator=(const ContentionScope&) = delete;

private:
  Cpu& cpu_;
};

}  // namespace

Node::Node(const MachineConfig& cfg, ExecutionPolicy policy)
    : cfg_(cfg), policy_(policy) {
  cfg_.validate();
  delta_.resize(static_cast<std::size_t>(cfg_.cpus_per_node));
  cpus_.reserve(static_cast<std::size_t>(cfg_.cpus_per_node));
  for (int i = 0; i < cfg_.cpus_per_node; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(cfg_));
  }
}

Cpu& Node::cpu(int i) {
  NCAR_REQUIRE(i >= 0 && i < cpu_count(), "cpu index");
  return *cpus_[static_cast<std::size_t>(i)];
}

const Cpu& Node::cpu(int i) const {
  NCAR_REQUIRE(i >= 0 && i < cpu_count(), "cpu index");
  return *cpus_[static_cast<std::size_t>(i)];
}

double Node::contention_factor(int active_cpus) const {
  NCAR_REQUIRE(active_cpus >= 0, "active cpu count");
  if (active_cpus <= 1) return 1.0;
  return 1.0 + cfg_.bank_contention_per_cpu * (active_cpus - 1);
}

double Node::barrier_seconds(int ncpu) const {
  if (ncpu <= 1) return 0.0;
  const double clocks =
      cfg_.barrier_base_clocks + cfg_.barrier_per_cpu_clocks * ncpu +
      cfg_.commreg_op_clocks * 2.0;  // store-add entering, test-set leaving
  return clocks * cfg_.seconds_per_clock();
}

ThreadPool* Node::host_pool() const {
  if (policy_ == ExecutionPolicy::Sequential) return nullptr;
  return pool_ != nullptr ? pool_ : &ThreadPool::global();
}

double Node::parallel(int ncpu, FunctionRef<void(int, Cpu&)> body) {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= cpu_count(),
               "parallel width exceeds node CPU count");
  const int active = std::min(ncpu + external_active_, cpu_count());
  const double contention = contention_factor(active);
  const double region_start_cycles =
      cfg_.to_cycles(Seconds(elapsed_)).value();

  // Ranks run inline, in rank order: each body is microseconds of cost
  // pricing, far below the price of a host-pool dispatch.
  for (int rank = 0; rank < ncpu; ++rank) {
    Cpu& c = *cpus_[static_cast<std::size_t>(rank)];
    const double before = c.cycles();
    // Align this rank's span track with the node wall clock.
    c.set_trace_time_offset(region_start_cycles - before);
    ContentionScope scope(c, contention);
    body(rank, c);
    delta_[static_cast<std::size_t>(rank)] = c.cycles() - before;
  }
  const auto delta = std::span<const double>(delta_).first(
      static_cast<std::size_t>(ncpu));

  double max_delta = 0.0;
  for (const double d : delta) max_delta = std::max(max_delta, d);

  const double barrier = barrier_seconds(ncpu);
  const double region = max_delta * cfg_.seconds_per_clock() + barrier;

  // Runtime attribution: Idle is the *mean* per-rank wait for the slowest
  // rank, so region = mean-rank-compute (Other residual) + Idle + Barrier
  // and no row can go negative. The barrier is charged to the region, not
  // to any Cpu. Recorded on the calling thread only, so tracing never
  // perturbs rank bodies.
  double idle_cycles = 0.0;
  for (const double d : delta) idle_cycles += max_delta - d;
  runtime_trace_.count_total(region);
  runtime_trace_.count(trace::Category::Idle,
                       idle_cycles / ncpu * cfg_.seconds_per_clock());
  runtime_trace_.count(trace::Category::Barrier, barrier);
  runtime_trace_.span(trace::Category::Barrier,
                      elapsed_ + max_delta * cfg_.seconds_per_clock(),
                      barrier, "barrier");
  for (int rank = 0; rank < ncpu; ++rank) {
    const double d = delta[static_cast<std::size_t>(rank)];
    cpus_[static_cast<std::size_t>(rank)]->trace().span(
        trace::Category::Idle, region_start_cycles + d, max_delta - d,
        "idle");
  }

  elapsed_ += region;
  return region;
}

double Node::serial(FunctionRef<void(Cpu&)> body) {
  Cpu& c = *cpus_.front();
  const double before = c.cycles();
  c.set_trace_time_offset(cfg_.to_cycles(Seconds(elapsed_)).value() -
                          before);
  // Memory traffic from other jobs on the node slows serial sections too.
  const int active = std::min(1 + external_active_, cpu_count());
  ContentionScope scope(c, contention_factor(active));
  body(c);
  const double region = (c.cycles() - before) * cfg_.seconds_per_clock();
  runtime_trace_.count_total(region);
  elapsed_ += region;
  return region;
}

void Node::set_external_active_cpus(int n) {
  NCAR_REQUIRE(n >= 0 && n <= cpu_count(), "external active cpus");
  external_active_ = n;
}

void Node::advance_seconds(Seconds s, trace::Category category) {
  NCAR_REQUIRE(s.value() >= 0, "negative advance");
  runtime_trace_.count_total(s.value());
  runtime_trace_.count(category, s.value());
  runtime_trace_.span(category, elapsed_, s.value(), "advance");
  elapsed_ += s.value();
}

void Node::reset() {
  elapsed_ = 0;
  external_active_ = 0;
  runtime_trace_.reset();
  for (auto& c : cpus_) c->reset();
}

std::uint64_t Node::cost_cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& c : cpus_) total += c->cost_cache_hits();
  return total;
}

std::uint64_t Node::cost_cache_misses() const {
  std::uint64_t total = 0;
  for (const auto& c : cpus_) total += c->cost_cache_misses();
  return total;
}

}  // namespace ncar::sxs
