#pragma once
// Machine configuration for the SX-4 performance model.
//
// Every parameter here is taken from the paper's architecture section
// (section 2) or its Table 2 (the SX-4/32 actually benchmarked in February
// 1996, which ran a 9.2 ns clock rather than the production 8.0 ns part).
// The model is deliberately parameter-driven so that the ablation benches
// can vary bank count, vector length, clock, and synchronisation cost.

#include <cstddef>
#include <string>

#include "common/quantity.hpp"

namespace ncar::sxs {

struct MachineConfig {
  std::string name = "SX-4";

  // --- clock -------------------------------------------------------------
  double clock_ns = 8.0;  ///< clock period; 9.2 ns on the benchmarked system

  // --- node shape ----------------------------------------------------------
  int cpus_per_node = 32;
  int nodes = 1;

  // --- vector unit (paper section 2.1) -------------------------------------
  // Eight vector-pipeline VLSI chips, each holding 32 vector elements per
  // register; together a 256-element vector register feeding 8-wide pipe
  // groups (add/shift, multiply, divide, logical).
  int vector_length = 256;     ///< elements per vector register
  int pipes_per_group = 8;     ///< results per cycle per pipe group
  double vector_issue_clocks = 2.0;   ///< "most vector instructions issue in two clocks"
  double vector_startup_clocks = 42.0;  ///< pipe fill + address setup per op sequence
  double divide_cycles_per_result = 4.0;  ///< divide pipes are not fully pipelined per-cycle

  // --- scalar unit (paper section 2.1) --------------------------------------
  int scalar_issue_width = 2;  ///< superscalar unit issues 2 instructions/clock
  std::size_t dcache_bytes = 64 * 1024;
  std::size_t icache_bytes = 64 * 1024;
  std::size_t cache_line_bytes = 128;
  int cache_ways = 2;
  double cache_miss_clocks = 45.0;  ///< main-memory load-use latency, clocks

  // --- main memory (paper section 2.2) ---------------------------------------
  int memory_banks = 1024;
  double bank_cycle_clocks = 2.0;          ///< SSRAM bank busy time
  // Port widths are architecture invariants (bytes moved per clock), so
  // they are typed Bytes; ablation benches that vary the clock keep the
  // width and change only the derived BytesPerSec rates.
  Bytes port_bytes_per_clock{128.0};     ///< 16 GB/s per CPU at 8 ns
  Bytes node_bytes_per_clock{4096.0};    ///< 512 GB/s sustainable per node
  // Gather / scatter (list-vector) accesses generate one address per element
  // and cannot use the full-width contiguous port; the paper's Figure 5 shows
  // IA and XPOSE far below COPY. Expressed as a divisor on port width.
  double gather_port_divisor = 4.0;
  double scatter_port_divisor = 4.0;
  // Strides above 2 lose the guaranteed conflict freedom: they run at a
  // reduced port width (this divisor) even when the stride spreads well
  // across banks, and degrade further on power-of-two strides (see
  // MemoryModel::stride_conflict_factor).
  double strided_port_divisor = 2.0;
  // Mild degradation per additional active CPU from bank conflicts; tuned so
  // the ensemble test (Table 6) reproduces the paper's 1.89 % degradation.
  double bank_contention_per_cpu = 6.8e-4;

  // --- synchronisation (communications registers, section 2.1) ---------------
  double commreg_op_clocks = 12.0;   ///< test-set / store-add on a comm register
  double barrier_base_clocks = 1500.0;  ///< macrotask fork/join dispatch
  double barrier_per_cpu_clocks = 40.0;

  // --- XMU (section 2.3) -----------------------------------------------------
  Bytes xmu_bytes_per_clock{128.0};  ///< 16 GB/s node XMU bandwidth at 8 ns
  Bytes xmu_capacity_bytes{4.0 * 1024 * 1024 * 1024};  // Table 2: 4 GB

  // --- IOP / HIPPI (section 2.4) ---------------------------------------------
  int iops = 4;
  BytesPerSec iop_bytes_per_s{1.6e9};    ///< per-IOP channel bandwidth
  BytesPerSec hippi_bytes_per_s{100e6};  ///< HIPPI-800 payload rate ~100 MB/s
  double hippi_setup_s = 40e-6;          ///< per-packet connection/setup cost

  // --- IXS (section 2.5) -------------------------------------------------------
  BytesPerSec ixs_channel_bytes_per_s{8e9};  ///< 8 GB/s per node in + out
  double ixs_latency_s = 3e-6;
  int ixs_max_nodes = 16;

  // --- derived ------------------------------------------------------------
  double clock_hz() const { return 1e9 / clock_ns; }
  double seconds_per_clock() const { return clock_ns * 1e-9; }
  /// Peak vector flop rate per CPU (add + multiply groups concurrently).
  double peak_flops_per_cpu() const {
    return 2.0 * pipes_per_group * clock_hz();
  }
  int total_cpus() const { return cpus_per_node * nodes; }

  // --- checked dimension conversions ---------------------------------------
  // Cycles and Seconds are distinct types (common/quantity.hpp); the ONLY
  // bridge between them is this machine's clock, so a conversion always
  // states which clock period it means.
  Seconds to_seconds(Cycles c) const {
    return Seconds(c.value() * seconds_per_clock());
  }
  Cycles to_cycles(Seconds s) const {
    return Cycles(s.value() / seconds_per_clock());
  }
  /// Per-CPU contiguous memory port bandwidth as a typed rate.
  BytesPerSec port_bandwidth() const {
    return port_bytes_per_clock / Seconds(seconds_per_clock());
  }
  /// Node XMU bandwidth as a typed rate.
  BytesPerSec xmu_bandwidth() const {
    return BytesPerSec(xmu_bytes_per_clock.value() * clock_hz());
  }

  /// The SX-4/32 of Table 2: 9.2 ns clock, 32 CPUs, 8 GB memory, 4 GB XMU.
  static MachineConfig sx4_benchmarked();
  /// The production SX-4 with the 8.0 ns clock.
  static MachineConfig sx4_product();
  /// A multi-node SX-4 (up to 16 nodes joined by the IXS).
  static MachineConfig sx4_multinode(int nodes);

  /// Throws ncar::config_error when parameters are inconsistent.
  void validate() const;
};

}  // namespace ncar::sxs
