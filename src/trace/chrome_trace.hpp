#pragma once
// Chrome trace_event exporter — the one owner of the JSON trace format.
//
// Renders a decoded .sxt run (trace/stream/reader.hpp) as a JSON object
// trace ({"traceEvents":[...]}) in the Trace Event Format understood by
// Perfetto and chrome://tracing. Both `SX4NCAR_TRACE=full` (the bench
// harness converts its .sxt at the end of the run) and `sxtrace convert`
// go through this function. Mapping:
//   * one pid per node (process_name metadata, e.g. "node0"),
//   * one tid per track within the node (thread_name metadata, "cpu3",
//     "runtime", "sfs", "scheduler", ...),
//   * every recorded span becomes a complete event (ph "X") whose name is
//     the op tag and whose cat is the Category name, with ts/dur in
//     microseconds of simulated time (ticks * seconds_per_tick * 1e6).
// Tracks flagged skip-if-empty that carry no spans are omitted (the bench
// harness's empty-CPU-track rule).
//
// Output is deterministic: tracks are emitted in file order, spans in
// record order, and doubles are rendered with the shortest round-trip
// representation (std::to_chars), so byte-comparing two trace files is a
// valid determinism check.

#include <iosfwd>
#include <string>

#include "trace/stream/reader.hpp"

namespace ncar::trace {

/// Write the Chrome trace JSON for `file` to `os`.
void write_chrome_trace(std::ostream& os, const stream::SxtFile& file);

/// Shortest round-trip decimal rendering of `v` (exposed for tests; the
/// bench harness JSON writer follows the same convention, so attribution
/// values survive the JSON round trip bit-exactly).
std::string format_double(double v);

}  // namespace ncar::trace
