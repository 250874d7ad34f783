#include "sxs/machine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ncar::sxs {

Machine::Machine(const MachineConfig& cfg, ExecutionPolicy policy)
    : cfg_(cfg), ixs_(cfg) {
  cfg_.validate();
  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int i = 0; i < cfg_.nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(cfg_, policy));
  }
}

Node& Machine::node(int i) {
  NCAR_REQUIRE(i >= 0 && i < node_count(), "node index");
  return *nodes_[static_cast<std::size_t>(i)];
}

const Node& Machine::node(int i) const {
  NCAR_REQUIRE(i >= 0 && i < node_count(), "node index");
  return *nodes_[static_cast<std::size_t>(i)];
}

void Machine::set_execution_policy(ExecutionPolicy p) {
  for (auto& n : nodes_) n->set_execution_policy(p);
}

void Machine::set_thread_pool(ThreadPool* pool) {
  for (auto& n : nodes_) n->set_thread_pool(pool);
}

double Machine::parallel(int nodes_used, int cpus_per_node_used,
                         FunctionRef<void(int, int, Cpu&)> body) {
  NCAR_REQUIRE(nodes_used >= 1 && nodes_used <= node_count(),
               "node count for the region");
  const double start = elapsed_seconds();

  // Nodes run inline, in node order, each pricing its ranks in turn.
  double slowest = 0;
  for (int n = 0; n < nodes_used; ++n) {
    slowest = std::max(
        slowest, node(n).parallel(cpus_per_node_used, [&](int rank, Cpu& cpu) {
          body(n, rank, cpu);
        }));
  }

  const double barrier =
      nodes_used > 1 ? ixs_.global_barrier_seconds(nodes_used).value() : 0.0;
  // Synchronise every participating node's clock to the region end.
  const double region_end = start + slowest + barrier;
  for (int n = 0; n < nodes_used; ++n) {
    Node& nd = node(n);
    if (nd.elapsed_seconds() < region_end) {
      // Global-barrier wait: the gap to the region end is time spent in the
      // IXS communications-register barrier behind the slowest node.
      nd.advance_seconds(Seconds(region_end - nd.elapsed_seconds()),
                         trace::Category::Barrier);
    }
  }
  return slowest + barrier;
}

double Machine::exchange(int nodes_used, Bytes bytes_per_node) {
  NCAR_REQUIRE(nodes_used >= 1 && nodes_used <= node_count(),
               "node count for the exchange");
  const double t = ixs_.all_to_all_seconds(nodes_used, bytes_per_node).value();
  for (int n = 0; n < nodes_used; ++n) {
    node(n).advance_seconds(Seconds(t), trace::Category::IxsTransfer);
  }
  return t;
}

Seconds Machine::xmu_transfer_seconds(Bytes bytes) const {
  NCAR_REQUIRE(bytes.value() >= 0, "negative transfer size");
  return bytes / cfg_.xmu_bandwidth();
}

Seconds Machine::iop_transfer_seconds(Bytes bytes) const {
  NCAR_REQUIRE(bytes.value() >= 0, "negative transfer size");
  return bytes / cfg_.iop_bytes_per_s;
}

double Machine::elapsed_seconds() const {
  double t = 0;
  for (const auto& n : nodes_) t = std::max(t, n->elapsed_seconds());
  return t;
}

void Machine::reset() {
  for (auto& n : nodes_) n->reset();
}

}  // namespace ncar::sxs
