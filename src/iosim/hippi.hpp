#pragma once
// HIPPI channel model (paper sections 2.4 and 4.5.2).
//
// The HIPPI benchmark sends and receives raw HIPPI packets of varying sizes
// and measures the data rate for single and multiple concurrent transfers.
// A HIPPI-800 channel carries 100 MB/s of payload; each packet pays a
// connection/setup latency; concurrent transfers ride separate channels up
// to the IOP count and then share. The model is analytic.

#include <vector>

#include "sxs/machine_config.hpp"
#include "trace/collector.hpp"

namespace ncar::iosim {

class HippiChannel {
public:
  explicit HippiChannel(const sxs::MachineConfig& cfg);

  /// Seconds to move one packet of `bytes` payload.
  Seconds packet_seconds(Bytes bytes) const;

  /// Seconds to move `total_bytes` as packets of `packet_bytes`.
  Seconds transfer_seconds(Bytes total_bytes, Bytes packet_bytes) const;

  /// Effective rate for a stream of `packet_bytes` packets.
  BytesPerSec effective_bytes_per_s(Bytes packet_bytes) const;

  /// Aggregate rate of `transfers` concurrent streams of `packet_bytes`
  /// packets across the machine's HIPPI channels (one per IOP); beyond
  /// that the streams time-share.
  BytesPerSec concurrent_bytes_per_s(int transfers, Bytes packet_bytes) const;

  /// Price a transfer like transfer_seconds and record it as io_hippi
  /// activity on the channel's cumulative-busy timeline.
  Seconds traced_transfer(Bytes total_bytes, Bytes packet_bytes);

  /// Destination for traced_transfer spans; nullptr disables. The collector
  /// must outlive the channel.
  void set_trace(trace::Collector* t) { trace_ = t; }

private:
  sxs::MachineConfig cfg_;
  trace::Collector* trace_ = nullptr;
  double traced_busy_s_ = 0;
};

}  // namespace ncar::iosim
