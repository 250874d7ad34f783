#pragma once
// Bench-side glue for the src/trace subsystem: fold a run's collectors into
// attribution metrics on the BenchReporter, and (in SX4NCAR_TRACE=stream
// and =full mode) stream the run's spans to a .sxt file next to the result
// file — which full mode then converts to a Chrome trace_event JSON.
//
// Every function here is a no-op when SX4NCAR_TRACE is off, so a bench that
// adopts it emits byte-identical result JSON to the committed baselines in
// the default configuration. In summary/full mode the reporter gains
//
//   <prefix>.attribution.total.cycles          fold of all per-CPU tracks
//   <prefix>.attribution.<category>.cycles     per-category charged cycles
//   <prefix>.attribution.<category>.fraction   cycles / total (0 if empty)
//   <prefix>.attribution.node.<category>.seconds   runtime-overhead track
//
// The per-CPU rows conserve: summing every <category>.cycles in enum order
// reproduces total.cycles bit-exactly (Other is the residual; see
// trace/attribution.hpp). tests/trace/ asserts this on real benchmarks.

#include <memory>
#include <string>
#include <vector>

#include "trace/collector.hpp"
#include "trace/stream/writer.hpp"

namespace ncar::sxs {
class Machine;
class Node;
}  // namespace ncar::sxs

namespace ncar::bench {

class BenchReporter;

/// Register the attribution tables for one node: the fold of its per-CPU
/// collectors plus its runtime-overhead track. No-op when tracing is off.
void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const sxs::Node& node);

/// Same, folding every node of a machine (per-CPU tracks across all nodes;
/// runtime tracks likewise folded).
void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const sxs::Machine& machine);

/// Register a standalone track (I/O device or scheduler collector) as
/// <prefix>.attribution.<category>.<unit> rows plus a .total.<unit> row.
/// No-op when tracing is off.
void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const trace::Collector& track,
                        const std::string& unit = "seconds");

/// Print the per-CPU attribution table as aligned text (category, cycles,
/// percent) — the human-readable companion of the JSON metrics. No-op when
/// tracing is off.
void print_attribution(std::ostream& os, const sxs::Node& node);
void print_attribution(std::ostream& os, const sxs::Machine& machine);

/// RAII session for the span-recording modes (SX4NCAR_TRACE=stream and
/// =full): opens a .sxt writer at `path` and wires every collector of the
/// node/machine (plus an optional standalone track, e.g. the scheduler, as
/// its own pid) to a per-track streaming sink. Track layout: one pid per
/// node, the runtime-overhead track on tid 0, cpu i on tid i+1 (omitted
/// from the Chrome trace when it recorded no spans). Inactive — every
/// method a no-op, nothing touched on disk — in any other mode, so benches
/// construct one unconditionally.
///
/// Call finish(rep) after the run: it detaches the sinks, finalises the
/// file, in full mode converts it to rep.trace_path() (Chrome trace_event
/// JSON, the same bytes `sxtrace convert` writes), and lands
/// `<bench>.trace_stream.{events,bytes,bytes_per_event}` on the reporter.
/// In a span mode it also checks `<bench>.trace_stream.written`: a trace
/// file that could not be created, or whose writes failed (a chunk
/// hand-off included), fails the run and reports no sizes. The destructor detaches and
/// finalises too (without metrics or conversion) if finish was never
/// reached.
class StreamTrace {
public:
  StreamTrace(const std::string& path, sxs::Node& node);
  StreamTrace(const std::string& path, sxs::Machine& machine);
  StreamTrace(const std::string& path, sxs::Node& node,
              trace::Collector& extra_track, const std::string& extra_name);
  ~StreamTrace();
  StreamTrace(const StreamTrace&) = delete;
  StreamTrace& operator=(const StreamTrace&) = delete;

  /// True when a writer is open (mode was Stream or Full and the file
  /// created).
  bool active() const { return writer_ != nullptr; }

  /// Finalise the .sxt (and in full mode write the Chrome JSON), then
  /// report the trace_stream metrics and the `written` check. Returns true
  /// when every file was written successfully.
  bool finish(BenchReporter& rep);

private:
  void attach_node(sxs::Node& node, int pid, const std::string& process_name);
  void attach(trace::Collector& collector,
              const trace::stream::Writer::TrackSpec& spec);

  /// Open the writer when the mode records spans.
  bool open(const std::string& path);

  std::vector<trace::Collector*> attached_;
  std::unique_ptr<trace::stream::Writer> writer_;
  bool requested_ = false;  ///< the mode records spans
  bool chrome_ = false;     ///< Mode::Full: convert to Chrome JSON at finish
};

}  // namespace ncar::bench
