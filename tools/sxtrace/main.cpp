// sxtrace — offline toolbox for .sxt binary streaming traces.
//
//   sxtrace convert <in.sxt> <out.json>   .sxt -> Chrome trace_event JSON,
//                                         the same bytes SX4NCAR_TRACE=full
//                                         writes for the same run
//   sxtrace stats <in.sxt>                events, bytes, bytes/event, the
//                                         compression ratio against the
//                                         equivalent Chrome JSON, drops
//
// Exit code 0 on success; 1 with a one-line "sxtrace: ..." diagnostic on
// usage errors, unreadable/corrupt input (the reader's exact "sxt: ..."
// message is passed through), or output I/O failure.

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/chrome_trace.hpp"
#include "trace/stream/reader.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sxtrace convert <in.sxt> <out.json>\n"
               "       sxtrace stats <in.sxt>\n");
  return 1;
}

int convert(const std::string& in_path, const std::string& out_path) {
  const ncar::trace::stream::SxtFile file =
      ncar::trace::stream::read_sxt_file(in_path);
  std::ofstream out(out_path, std::ios::binary);
  if (!out.is_open()) {
    std::fprintf(stderr, "sxtrace: cannot open %s\n", out_path.c_str());
    return 1;
  }
  ncar::trace::write_chrome_trace(out, file);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "sxtrace: write failed: %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

int stats(const std::string& in_path) {
  const ncar::trace::stream::SxtFile file =
      ncar::trace::stream::read_sxt_file(in_path);

  std::uint64_t events = 0;
  std::size_t tracks = 0;
  for (const ncar::trace::stream::TrackData& t : file.tracks) {
    events += t.spans.size();
    if (!(t.skip_if_empty && t.spans.empty())) ++tracks;
  }

  // The honest compression baseline: render the very JSON `convert` would
  // emit and compare sizes.
  std::ostringstream json;
  ncar::trace::write_chrome_trace(json, file);
  const std::uint64_t json_bytes = json.str().size();

  const double bytes = static_cast<double>(file.stats.file_bytes);
  std::printf("tracks:            %zu\n", tracks);
  std::printf("events:            %llu\n",
              static_cast<unsigned long long>(events));
  std::printf("sxt bytes:         %llu\n",
              static_cast<unsigned long long>(file.stats.file_bytes));
  std::printf("bytes/event:       %.3f\n",
              events > 0 ? bytes / static_cast<double>(events) : 0.0);
  std::printf("chrome json bytes: %llu\n",
              static_cast<unsigned long long>(json_bytes));
  std::printf("compression ratio: %.2fx\n",
              bytes > 0 ? static_cast<double>(json_bytes) / bytes : 0.0);
  std::printf("chunks:            %llu\n",
              static_cast<unsigned long long>(file.stats.total_chunks));
  std::printf("recorded (epochs): %llu\n",
              static_cast<unsigned long long>(file.stats.total_records));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "convert") {
      if (argc != 4) return usage();
      return convert(argv[2], argv[3]);
    }
    if (cmd == "stats") {
      if (argc != 3) return usage();
      return stats(argv[2]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sxtrace: %s\n", e.what());
    return 1;
  }
  return usage();
}
