#include "trace/stream/sink.hpp"

#include "common/error.hpp"
#include "trace/stream/format.hpp"
#include "trace/stream/writer.hpp"

namespace ncar::trace::stream {

TrackSink::TrackSink(Writer* writer, std::uint32_t id,
                     std::size_t chunk_records)
    : writer_(writer), id_(id) {
  ring_.resize(chunk_records);
  encode_buf_.resize(chunk_records * kMaxRecordBytes);
}

void TrackSink::on_reset() {
  fill_ = 0;
  live_records_ = 0;
  ++epoch_;
}

void TrackSink::flush() {
  if (fill_ == 0) return;
  const std::size_t raw_len = encode_records(ring_.data(), fill_,
                                             encode_buf_.data());
  writer_->append_chunk(id_, epoch_, seq_, fill_, encode_buf_.data(),
                        raw_len);
  ++seq_;
  fill_ = 0;
}

std::uint32_t TrackSink::tag_id(const char* tag) {
  // Identity hash on the tag pointer (tags are op-table string literals
  // or Collector-interned strings, both address-stable): multiply-shift
  // to the slot, linear probe from there.
  const auto key = reinterpret_cast<std::uintptr_t>(tag);
  std::size_t slot =
      static_cast<std::size_t>((static_cast<std::uint64_t>(key >> 3) *
                                0x9E3779B97F4A7C15ull) >>
                               54) &
      (kTagSlots - 1);
  while (tag_slot_key_[slot] != nullptr) {
    if (tag_slot_key_[slot] == tag) {
      last_tag_ = tag;
      last_tag_id_ = tag_slot_id_[slot];
      return last_tag_id_;
    }
    slot = (slot + 1) & (kTagSlots - 1);
  }
  // First sighting: intern a copy. Amortised growth, off the steady-state
  // charge path; the slot bound is far above any real tag cardinality.
  NCAR_REQUIRE(tags_.size() < kTagSlots - 1, "trace stream tag overflow");
  tag_slot_key_[slot] = tag;
  tag_slot_id_[slot] = static_cast<std::uint32_t>(tags_.size());
  tags_.emplace_back(tag);
  last_tag_ = tag;
  last_tag_id_ = tag_slot_id_[slot];
  return last_tag_id_;
}

}  // namespace ncar::trace::stream
