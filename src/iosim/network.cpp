#include "iosim/network.hpp"

#include <algorithm>

namespace ncar::iosim {

Network::Network(NetworkConfig cfg) : cfg_(cfg) {
  NCAR_REQUIRE(cfg_.line_bits_per_s > 0 && cfg_.mtu_bytes > 0,
               "line parameters must be positive");
  NCAR_REQUIRE(cfg_.rtt_s > 0 && cfg_.tcp_window_bytes > 0,
               "TCP parameters must be positive");
}

BytesPerSec Network::throughput_bytes_per_s() const {
  const double line = cfg_.line_bits_per_s / 8.0;
  const double host = cfg_.mtu_bytes / cfg_.per_packet_host_s;
  const double window = cfg_.tcp_window_bytes / cfg_.rtt_s;
  return BytesPerSec(std::min({line, host, window}));
}

Seconds Network::data_transfer_seconds(Bytes bytes) const {
  NCAR_REQUIRE(bytes.value() >= 0, "negative transfer size");
  return Seconds(cfg_.command_overhead_s + cfg_.rtt_s) +
         bytes / throughput_bytes_per_s();
}

Seconds Network::command_seconds() const {
  return Seconds(cfg_.command_overhead_s + 2.0 * cfg_.rtt_s);
}

}  // namespace ncar::iosim
