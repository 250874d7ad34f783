#pragma once
// Writer — incremental chunk-flushing .sxt file writer.
//
// Owns the output stream and every TrackSink. Sinks hand it raw stage-1
// chunks as their rings fill (append_chunk, mutex-serialised); finalize()
// flushes the partial rings, then rewrites the chunk stream in one pass:
// chunks from dead epochs (spans recorded before the last
// Collector::reset, which the exported trace does not show) are dropped,
// and survivors are entropy-packed. Packing at
// finalize rather than on the charge path keeps the in-run cost to the
// stage-1 encode and never spends coder time on records a reset is about
// to discard. The file on disk is a valid chunk stream at all times
// before the footer, so a crashed run leaves a prefix a tolerant reader
// could still scan (raw chunks only, which is also the robust choice).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/stream/sink.hpp"

namespace ncar::trace::stream {

class Writer {
public:
  /// Track identity as it lands in the footer: the pid/tid, names and
  /// time unit the Chrome exporter places the track's spans under.
  struct TrackSpec {
    int pid = 0;
    int tid = 0;
    std::string process_name;
    std::string thread_name;
    double seconds_per_tick = 1.0;
    bool skip_if_empty = false;  ///< empty-CPU-track rule of the exporter
  };

  struct Options {
    std::size_t chunk_records = 4096;  ///< ring size: records per chunk
    bool pack = true;                  ///< entropy-pack chunks at finalize
  };

  struct Stats {
    std::uint64_t events = 0;      ///< live records across all tracks
    std::uint64_t chunks = 0;      ///< chunks surviving compaction
    std::uint64_t file_bytes = 0;  ///< final size on disk
  };

  /// Create `path` (parent directories included) and write the header.
  /// Returns nullptr when the file cannot be created.
  static std::unique_ptr<Writer> open(const std::string& path, Options opt);
  static std::unique_ptr<Writer> open(const std::string& path) {
    return open(path, Options());
  }

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Register a track. All tracks must be added before spans flow.
  TrackSink& add_track(const TrackSpec& spec);

  /// Flush pending rings, compact dead epochs and entropy-pack the
  /// survivors, write footer + trailer. Idempotent; returns false if any
  /// file operation failed.
  bool finalize();

  /// Valid after finalize().
  const Stats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

private:
  friend class TrackSink;
  Writer(const std::string& path, std::fstream file,
         std::size_t chunk_records, bool pack);

  /// Sink handoff: write one raw (stage-1) chunk. A stream error latches
  /// the failed state, so finalize() returns false; after a failure the
  /// chunk is discarded. Throws precondition_error after finalize().
  void append_chunk(std::uint32_t track_id, std::uint64_t epoch,
                    std::uint64_t seq, std::size_t record_count,
                    const std::uint8_t* payload, std::size_t payload_bytes);

  struct ChunkIndexEntry {
    std::uint64_t offset = 0;  ///< of the 0x01 marker byte
    std::uint64_t length = 0;  ///< marker + header + payload
    std::uint32_t track_id = 0;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::uint64_t record_count = 0;
    std::uint64_t payload_bytes = 0;  ///< raw until the finalize rewrite
  };

  /// The finalize pass over the chunk stream: drop dead-epoch chunks and
  /// (when packing is on) entropy-pack the survivors, sliding everything
  /// down in place. Chunks only ever shrink, so the copy is forward-safe.
  bool rewrite_stream(std::uint64_t& stream_end);

  std::string path_;
  std::fstream file_;
  std::size_t chunk_records_;
  bool pack_;
  std::mutex mutex_;
  bool failed_ = false;
  bool finalized_ = false;
  std::uint64_t write_offset_ = 0;
  std::vector<ChunkIndexEntry> index_;
  std::vector<TrackSpec> specs_;
  std::vector<std::unique_ptr<TrackSink>> sinks_;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_payload_bytes_ = 0;
  Stats stats_;
};

}  // namespace ncar::trace::stream
