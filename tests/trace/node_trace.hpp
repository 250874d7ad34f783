#pragma once
// Test helper: the SX4NCAR_TRACE=full path for one node. Streams every
// collector of the node to a .sxt file with the bench harness's track
// layout (StreamTrace in bench/harness/trace_report.cpp: runtime on tid 0,
// cpu i on tid i+1, empty CPU tracks skipped) and renders the file as
// Chrome trace JSON.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sxs/node.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/collector.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"

namespace ncar::test {

/// Run `body(node)` with the node's collectors attached to a .sxt writer
/// at `sxt_path`, then convert the file. The caller picks a span mode.
template <typename Body>
std::string stream_chrome_json(const std::string& sxt_path, sxs::Node& node,
                               Body body) {
  using trace::stream::Writer;
  auto writer = Writer::open(sxt_path);
  if (writer == nullptr) {
    ADD_FAILURE() << "cannot open " << sxt_path;
    return {};
  }
  std::vector<trace::Collector*> attached;
  auto attach = [&](trace::Collector& c, int tid, const std::string& name,
                    bool skip_if_empty) {
    Writer::TrackSpec spec;
    spec.pid = 0;
    spec.tid = tid;
    spec.process_name = "node0";
    spec.thread_name = name;
    spec.seconds_per_tick = c.seconds_per_tick();
    spec.skip_if_empty = skip_if_empty;
    c.set_stream_sink(&writer->add_track(spec));
    attached.push_back(&c);
  };
  attach(node.runtime_trace(), 0, "runtime", false);
  for (int i = 0; i < node.cpu_count(); ++i) {
    attach(node.cpu(i).trace(), i + 1, "cpu" + std::to_string(i), true);
  }
  body(node);
  for (trace::Collector* c : attached) c->set_stream_sink(nullptr);
  EXPECT_TRUE(writer->finalize());
  std::ostringstream os;
  trace::write_chrome_trace(os, trace::stream::read_sxt_file(sxt_path));
  return os.str();
}

}  // namespace ncar::test
