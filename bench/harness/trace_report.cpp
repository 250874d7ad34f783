#include "harness/trace_report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <vector>

#include "harness/reporter.hpp"
#include "sxs/machine.hpp"
#include "sxs/node.hpp"
#include "trace/attribution.hpp"
#include "trace/category.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/stream/reader.hpp"

namespace ncar::bench {

namespace {

std::vector<const trace::Collector*> cpu_tracks(const sxs::Node& node) {
  std::vector<const trace::Collector*> tracks;
  tracks.reserve(static_cast<std::size_t>(node.cpu_count()));
  for (int i = 0; i < node.cpu_count(); ++i) {
    tracks.push_back(&node.cpu(i).trace());
  }
  return tracks;
}

void report_rows(BenchReporter& rep, const std::string& prefix,
                 const trace::Attribution& attr, const std::string& unit,
                 bool fractions) {
  rep.metric(prefix + ".total." + unit, attr.total_ticks, unit);
  for (const trace::AttributionRow& row : attr.rows) {
    const std::string base = prefix + "." + trace::to_string(row.category);
    rep.metric(base + "." + unit, row.ticks, unit);
    if (fractions) rep.metric(base + ".fraction", row.fraction);
  }
}

void report_cpu_and_runtime(BenchReporter& rep, const std::string& prefix,
                            const std::vector<const trace::Collector*>& cpus,
                            const std::vector<const trace::Collector*>& runtime) {
  report_rows(rep, prefix + ".attribution",
              trace::build_attribution(cpus), "cycles",
              /*fractions=*/true);
  report_rows(rep, prefix + ".attribution.node",
              trace::build_attribution(runtime), "seconds",
              /*fractions=*/false);
}

void print_rows(std::ostream& os, const trace::Attribution& attr,
                const char* unit) {
  char line[128];
  std::snprintf(line, sizeof line, "  %-16s %18s %8s\n", "category", unit,
                "share");
  os << "attribution (" << trace::to_string(trace::mode()) << " mode):\n"
     << line;
  for (const trace::AttributionRow& row : attr.rows) {
    if (row.ticks == 0.0) continue;
    std::snprintf(line, sizeof line, "  %-16s %18.6e %7.2f%%\n",
                  trace::to_string(row.category), row.ticks,
                  100.0 * row.fraction);
    os << line;
  }
  std::snprintf(line, sizeof line, "  %-16s %18.6e\n", "total",
                attr.total_ticks);
  os << line << "\n";
}

/// Convert the finished .sxt at `sxt_path` to Chrome JSON at `json_path`.
bool write_chrome_json(const std::string& sxt_path,
                       const std::string& json_path) {
  const trace::stream::SxtFile file = trace::stream::read_sxt_file(sxt_path);
  std::ofstream out(json_path, std::ios::binary);
  if (!out) return false;
  trace::write_chrome_trace(out, file);
  return out.good();
}

}  // namespace

void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const sxs::Node& node) {
  if (trace::mode() == trace::Mode::Off) return;
  report_cpu_and_runtime(rep, prefix, cpu_tracks(node),
                         {&node.runtime_trace()});
}

void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const sxs::Machine& machine) {
  if (trace::mode() == trace::Mode::Off) return;
  std::vector<const trace::Collector*> cpus;
  std::vector<const trace::Collector*> runtime;
  for (int n = 0; n < machine.node_count(); ++n) {
    const sxs::Node& node = machine.node(n);
    for (int i = 0; i < node.cpu_count(); ++i) {
      cpus.push_back(&node.cpu(i).trace());
    }
    runtime.push_back(&node.runtime_trace());
  }
  report_cpu_and_runtime(rep, prefix, cpus, runtime);
}

void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const trace::Collector& track,
                        const std::string& unit) {
  if (trace::mode() == trace::Mode::Off) return;
  report_rows(rep, prefix + ".attribution", trace::build_attribution(track),
              unit, /*fractions=*/true);
}

void print_attribution(std::ostream& os, const sxs::Node& node) {
  if (trace::mode() == trace::Mode::Off) return;
  print_rows(os, trace::build_attribution(cpu_tracks(node)), "cycles");
}

bool StreamTrace::open(const std::string& path) {
  const trace::Mode m = trace::mode();
  if (!trace::spans_enabled(m)) return false;
  requested_ = true;
  writer_ = trace::stream::Writer::open(path);
  chrome_ = m == trace::Mode::Full;
  return writer_ != nullptr;
}

StreamTrace::StreamTrace(const std::string& path, sxs::Node& node) {
  if (!open(path)) return;
  attach_node(node, 0, "node0");
}

StreamTrace::StreamTrace(const std::string& path, sxs::Machine& machine) {
  if (!open(path)) return;
  for (int n = 0; n < machine.node_count(); ++n) {
    attach_node(machine.node(n), n, "node" + std::to_string(n));
  }
}

StreamTrace::StreamTrace(const std::string& path, sxs::Node& node,
                         trace::Collector& extra_track,
                         const std::string& extra_name) {
  if (!open(path)) return;
  attach_node(node, 0, "node0");
  trace::stream::Writer::TrackSpec spec;
  spec.pid = 1;
  spec.tid = 0;
  spec.process_name = extra_name;
  spec.thread_name = extra_name;
  attach(extra_track, spec);
}

StreamTrace::~StreamTrace() {
  for (trace::Collector* c : attached_) c->set_stream_sink(nullptr);
  // writer_ destructor finalises if finish() never ran.
}

void StreamTrace::attach_node(sxs::Node& node, int pid,
                              const std::string& process_name) {
  // Runtime first on tid 0, then cpu i on tid i+1 with the Chrome
  // exporter's skip-empty-CPU-track rule carried as a footer flag.
  trace::stream::Writer::TrackSpec spec;
  spec.pid = pid;
  spec.tid = 0;
  spec.process_name = process_name;
  spec.thread_name = "runtime";
  attach(node.runtime_trace(), spec);
  for (int i = 0; i < node.cpu_count(); ++i) {
    spec.tid = i + 1;
    spec.thread_name = "cpu" + std::to_string(i);
    spec.skip_if_empty = true;
    attach(node.cpu(i).trace(), spec);
  }
}

void StreamTrace::attach(trace::Collector& collector,
                         const trace::stream::Writer::TrackSpec& spec) {
  trace::stream::Writer::TrackSpec full = spec;
  full.seconds_per_tick = collector.seconds_per_tick();
  collector.set_stream_sink(&writer_->add_track(full));
  attached_.push_back(&collector);
}

bool StreamTrace::finish(BenchReporter& rep) {
  if (!requested_) return false;
  const std::string prefix = rep.name() + ".trace_stream";
  bool ok = false;
  if (active()) {
    for (trace::Collector* c : attached_) c->set_stream_sink(nullptr);
    attached_.clear();
    ok = writer_->finalize();
    if (ok && chrome_) {
      ok = write_chrome_json(writer_->path(), rep.trace_path());
    }
    if (ok) {
      const trace::stream::Writer::Stats& st = writer_->stats();
      const double events = static_cast<double>(st.events);
      const double bytes = static_cast<double>(st.file_bytes);
      rep.metric(prefix + ".events", events);
      rep.metric(prefix + ".bytes", bytes, "bytes");
      rep.metric(prefix + ".bytes_per_event",
                 events > 0 ? bytes / events : 0.0);
    }
    writer_.reset();
  }
  // A trace that lost spans (or was never created) must not pass for a
  // complete one: the run fails.
  rep.expect_true(prefix + ".written", ok,
                  "a span-mode run writes its whole trace");
  return ok;
}

void print_attribution(std::ostream& os, const sxs::Machine& machine) {
  if (trace::mode() == trace::Mode::Off) return;
  std::vector<const trace::Collector*> cpus;
  for (int n = 0; n < machine.node_count(); ++n) {
    const sxs::Node& node = machine.node(n);
    for (int i = 0; i < node.cpu_count(); ++i) {
      cpus.push_back(&node.cpu(i).trace());
    }
  }
  print_rows(os, trace::build_attribution(cpus), "cycles");
}

}  // namespace ncar::bench
