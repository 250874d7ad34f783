#pragma once
// The .sxt binary streaming trace format, version 3.
//
// One file = one traced run. Layout (all integers are LEB128 varints from
// varint.hpp unless noted; byte order of fixed fields is little-endian):
//
//   [header]   magic "SXT1" (4 bytes), u32 version = 3, u64 reserved = 0
//   [chunk]*   a 0x01 marker byte, then
//                varint track_id      index into the footer's track table
//                varint epoch         Collector::reset generation; only the
//                                     final epoch of a track is live
//                varint seq           per-track chunk counter (monotone)
//                varint record_count  spans encoded in this chunk
//                u8     encoding      0 = raw stage-1 bytes,
//                                     1 = entropy-packed (entropy.hpp)
//                varint raw_bytes     stage-1 size (what decoding yields)
//                varint payload_bytes bytes that follow
//                payload...
//   [end]      a single 0x00 marker byte
//   [footer]   varint track_count, then per track:
//                varint pid, varint tid
//                varint len + process_name bytes
//                varint len + thread_name bytes
//                u64    seconds_per_tick as raw IEEE-754 bits
//                u8     flags (bit 0: skip track when it has no spans —
//                       the Chrome exporter's empty-CPU-track rule)
//                varint final_epoch
//                varint live_records  records in the final epoch
//                varint tag_count, then per tag: varint len + bytes
//              then varint total_chunks, varint total_records (all
//              epochs), varint total_payload_bytes
//   [trailer]  magic "SXTE" (4 bytes)
//
// Record payload (stage 1, before the optional entropy pack): per record
//   varint header       (tag_id << 4) | category   — kCategoryCount <= 16
//   varint start_xor    IEEE bits of start XOR bits of the predicted
//                       start (previous start + previous duration; 0.0
//                       for the first record of a chunk). A contiguous
//                       span stream encodes as a single 0x00.
//   varint duration_xor IEEE bits of duration XOR the last duration seen
//                       for the SAME tag id in this chunk (0.0 before its
//                       first record). Op costs repeat bit-identically
//                       across timesteps (per-CPU cost caches), so a
//                       repeating op stream encodes its durations as
//                       single 0x00 bytes. Tag ids >= 4096 always
//                       predict 0.0 — a decoder memory bound.
// Prediction state resets at every chunk boundary so chunks decode
// independently of one another.
//
// Versioning and forward compatibility: the header version is bumped on
// any layout change; readers reject versions they do not know
// ("sxt: unsupported version") rather than guessing. Version 2 dropped
// version 1's per-track max_spans footer varint (the span cap of an
// in-memory buffer that no longer exists); version 3 dropped version 2's
// per-track `dropped` varint, which no readable file could carry non-zero.
// Unknown footer flag bits are reserved-zero and readers must ignore them.
// A file never loses spans silently: a failed chunk hand-off (the file
// write failed) latches the writer's failure, finalize() then writes no
// footer and returns false, and the bench harness fails the run.

#include <cstddef>
#include <cstdint>

#include "trace/category.hpp"

namespace ncar::trace::stream {

static_assert(kCategoryCount <= 16,
              "record header packs the category into four bits");

inline constexpr char kMagic[4] = {'S', 'X', 'T', '1'};
inline constexpr char kTrailer[4] = {'S', 'X', 'T', 'E'};
inline constexpr std::uint32_t kVersion = 3;

inline constexpr std::uint8_t kChunkMarker = 0x01;
inline constexpr std::uint8_t kEndMarker = 0x00;

inline constexpr std::uint8_t kEncodingRaw = 0;
inline constexpr std::uint8_t kEncodingEntropy = 1;

/// Track-table flags (footer).
inline constexpr std::uint8_t kFlagSkipIfEmpty = 0x01;

/// Worst-case stage-1 bytes per record: three maximal varints.
inline constexpr std::size_t kMaxRecordBytes = 30;

}  // namespace ncar::trace::stream
