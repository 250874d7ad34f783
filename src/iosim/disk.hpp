#pragma once
// Conventional-disk subsystem model for the I/O benchmark (paper 4.5.1).
//
// The benchmark writes a simulated header file and an unformatted
// direct-access "history tape" whose records can be written by different
// processors (one record per latitude). The model is a striped array of
// spindles behind controllers: each request pays seek + rotational latency
// once per contiguous extent and then streams at the media rate; striping
// spreads large transfers across spindles. The model is analytic: it
// prices transfers in closed form.

#include <cstdint>

#include "common/error.hpp"
#include "common/quantity.hpp"
#include "trace/collector.hpp"

namespace ncar::iosim {

struct DiskConfig {
  int spindles = 16;                     ///< striped drive count
  Seconds seek{8e-3};                    ///< average seek
  Seconds rotational{4e-3};              ///< average rotational latency (7200rpm/2)
  BytesPerSec media_rate{9e6};           ///< per-spindle sustained media rate
  BytesPerSec controller_rate{80e6};     ///< shared controller ceiling
  Bytes stripe{256.0 * 1024};            ///< striping unit
};

class DiskSystem {
public:
  explicit DiskSystem(DiskConfig cfg = {});

  const DiskConfig& config() const { return cfg_; }

  /// Seconds for one sequential transfer of `bytes` (read or write — the
  /// model is symmetric), including one positioning delay.
  Seconds sequential_seconds(Bytes bytes) const;

  /// Seconds for `records` direct-access record writes of `record_bytes`
  /// each, issued from `writers` concurrent processors. Positioning costs
  /// overlap across spindles; media time shares the controller.
  Seconds direct_access_seconds(long records, Bytes record_bytes,
                                int writers = 1) const;

  /// Effective streaming bandwidth for very large transfers.
  BytesPerSec streaming_bytes_per_s() const;

  // --- accounting ---------------------------------------------------------
  void record_transfer(Bytes bytes, Seconds seconds);
  Bytes total_bytes() const { return total_bytes_; }
  Seconds busy_seconds() const { return busy_seconds_; }
  void reset_accounting();

  /// Record transfers as io_disk activity on `t` (device-busy timeline:
  /// span starts at the cumulative busy seconds before each transfer);
  /// nullptr disables. The collector must outlive the DiskSystem.
  void set_trace(trace::Collector* t) { trace_ = t; }

private:
  DiskConfig cfg_;
  Bytes total_bytes_;
  Seconds busy_seconds_;
  trace::Collector* trace_ = nullptr;
};

}  // namespace ncar::iosim
