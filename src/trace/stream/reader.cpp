#include "trace/stream/reader.hpp"

#include <bit>
#include <cstring>
#include <fstream>

#include "trace/stream/entropy.hpp"
#include "trace/stream/format.hpp"
#include "trace/stream/varint.hpp"

namespace ncar::trace::stream {

namespace {

/// All decoded chunks of one track, in file (= per-track seq) order.
struct PendingChunk {
  std::uint64_t epoch = 0;
  std::vector<RawRecord> records;
};

class Parser {
public:
  Parser(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}

  SxtFile run() {
    check_frame();
    while (true) {
      const std::uint8_t marker = data_[pos_++];
      if (marker == kEndMarker) break;
      if (marker != kChunkMarker) throw FormatError("sxt: bad section marker");
      read_chunk();
    }
    SxtFile file = read_footer();
    file.stats.file_bytes = len_;
    return file;
  }

private:
  void check_frame() {
    // header (16) + end marker (1) + footer track/total counts (>= 4) +
    // trailer (4) is the smallest well-formed file.
    if (len_ < 25) throw FormatError("sxt: file too small");
    if (std::memcmp(data_, kMagic, 4) != 0) throw FormatError("sxt: bad magic");
    std::uint32_t version = 0;
    for (int b = 0; b < 4; ++b) {
      version |= static_cast<std::uint32_t>(data_[4 + b]) << (8 * b);
    }
    if (version != kVersion) throw FormatError("sxt: unsupported version");
    if (std::memcmp(data_ + len_ - 4, kTrailer, 4) != 0) {
      throw FormatError("sxt: missing trailer");
    }
    pos_ = 16;  // magic + version + reserved
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    if (!get_varint(data_, len_, pos_, v)) {
      throw FormatError("sxt: truncated varint");
    }
    return v;
  }

  std::string string_field() {
    const std::uint64_t n = varint();
    if (n > len_ - pos_) throw FormatError("sxt: truncated footer");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  void read_chunk() {
    const std::uint64_t track_id = varint();
    const std::uint64_t epoch = varint();
    varint();  // seq: informational; file order is authoritative
    const std::uint64_t record_count = varint();
    if (pos_ >= len_) throw FormatError("sxt: truncated varint");
    const std::uint8_t encoding = data_[pos_++];
    const std::uint64_t raw_bytes = varint();
    const std::uint64_t payload_bytes = varint();
    if (payload_bytes > len_ - pos_) {
      throw FormatError("sxt: truncated chunk payload");
    }
    const std::uint8_t* payload = data_ + pos_;
    pos_ += static_cast<std::size_t>(payload_bytes);

    const std::uint8_t* raw = payload;
    if (encoding == kEncodingEntropy) {
      if (!entropy_unpack(payload, static_cast<std::size_t>(payload_bytes),
                          static_cast<std::size_t>(raw_bytes), scratch_)) {
        throw FormatError("sxt: entropy payload corrupt");
      }
      raw = scratch_.data();
    } else if (encoding == kEncodingRaw) {
      if (raw_bytes != payload_bytes) {
        throw FormatError("sxt: record payload corrupt");
      }
    } else {
      throw FormatError("sxt: bad chunk encoding");
    }

    if (track_id >= chunks_.size()) {
      chunks_.resize(static_cast<std::size_t>(track_id) + 1);
    }
    PendingChunk chunk;
    chunk.epoch = epoch;
    chunk.records.resize(static_cast<std::size_t>(record_count));
    if (!decode_records(raw, static_cast<std::size_t>(raw_bytes),
                        chunk.records.size(), chunk.records.data())) {
      throw FormatError("sxt: record payload corrupt");
    }
    chunks_[static_cast<std::size_t>(track_id)].push_back(std::move(chunk));
  }

  SxtFile read_footer() {
    SxtFile file;
    const std::uint64_t track_count = varint();
    if (chunks_.size() > track_count) {
      throw FormatError("sxt: chunk for unknown track");
    }
    file.tracks.resize(static_cast<std::size_t>(track_count));
    for (std::size_t id = 0; id < file.tracks.size(); ++id) {
      TrackData& track = file.tracks[id];
      track.pid = static_cast<int>(varint());
      track.tid = static_cast<int>(varint());
      track.process_name = string_field();
      track.thread_name = string_field();
      if (len_ - pos_ < 8) throw FormatError("sxt: truncated footer");
      std::uint64_t tick_bits = 0;
      for (int b = 0; b < 8; ++b) {
        tick_bits |= static_cast<std::uint64_t>(data_[pos_ + static_cast<
                         std::size_t>(b)])
                     << (8 * b);
      }
      pos_ += 8;
      track.seconds_per_tick = std::bit_cast<double>(tick_bits);
      if (pos_ >= len_) throw FormatError("sxt: truncated footer");
      const std::uint8_t flags = data_[pos_++];
      track.skip_if_empty = (flags & kFlagSkipIfEmpty) != 0;
      track.final_epoch = varint();
      const std::uint64_t live_records = varint();
      const std::uint64_t tag_count = varint();
      track.tags.reserve(static_cast<std::size_t>(tag_count));
      for (std::uint64_t t = 0; t < tag_count; ++t) {
        track.tags.push_back(string_field());
      }

      if (id < chunks_.size()) {
        for (PendingChunk& chunk : chunks_[id]) {
          if (chunk.epoch != track.final_epoch) continue;
          for (const RawRecord& r : chunk.records) {
            if (r.tag >= track.tags.size()) {
              throw FormatError("sxt: tag id out of range");
            }
            track.spans.push_back(r);
          }
        }
      }
      if (track.spans.size() != live_records) {
        throw FormatError("sxt: track record count mismatch");
      }
    }
    file.stats.total_chunks = varint();
    file.stats.total_records = varint();
    file.stats.total_payload_bytes = varint();
    if (pos_ != len_ - 4) throw FormatError("sxt: footer size mismatch");
    return file;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  std::vector<std::vector<PendingChunk>> chunks_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace

SxtFile parse_sxt(const std::uint8_t* data, std::size_t len) {
  return Parser(data, len).run();
}

SxtFile read_sxt_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw FormatError("sxt: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  bytes.resize(static_cast<std::size_t>(size > 0 ? size : 0));
  if (!bytes.empty()) {
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  if (!in) throw FormatError("sxt: cannot open " + path);
  return parse_sxt(bytes.data(), bytes.size());
}

}  // namespace ncar::trace::stream
