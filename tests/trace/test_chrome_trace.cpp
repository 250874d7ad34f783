#include "trace/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/category.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"

namespace {

using namespace ncar;
using trace::Category;
using trace::stream::RawRecord;
using trace::stream::SxtFile;
using trace::stream::TrackData;
using trace::stream::TrackSink;
using trace::stream::Writer;

std::string render(const SxtFile& file) {
  std::ostringstream os;
  trace::write_chrome_trace(os, file);
  return os.str();
}

/// One decoded track with `tags` and `spans` (pid 0, "node0").
TrackData track(int tid, const std::string& thread, double seconds_per_tick,
                std::vector<std::string> tags, std::vector<RawRecord> spans) {
  TrackData t;
  t.tid = tid;
  t.process_name = "node0";
  t.thread_name = thread;
  t.seconds_per_tick = seconds_per_tick;
  t.tags = std::move(tags);
  t.spans = std::move(spans);
  return t;
}

RawRecord record(double start, double duration, Category c) {
  return RawRecord{start, duration, 0, static_cast<std::uint8_t>(c)};
}

TEST(ChromeTraceTest, EmptyTrackListIsValidJson) {
  EXPECT_EQ(render(SxtFile{}), "{\"traceEvents\":[\n\n]}\n");
}

TEST(ChromeTraceTest, EmitsMetadataAndCompleteEvents) {
  SxtFile file;
  // 2 seconds per tick: ts/dur scale by 2e6.
  file.tracks.push_back(track(1, "cpu1", 2.0, {"vec"},
                              {record(1.0, 3.0, Category::VectorAdd)}));
  const std::string out = render(file);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"node0\""), std::string::npos);
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"cpu1\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"vec\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"vector_add\""), std::string::npos);
  // ts = 1.0 tick * 2 s/tick * 1e6 us/s, dur = 3.0 * 2e6.
  EXPECT_NE(out.find("\"ts\":2e+06"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":6e+06"), std::string::npos);
}

TEST(ChromeTraceTest, EscapesTagStrings) {
  SxtFile file;
  file.tracks.push_back(track(0, "cpu0", 1.0, {"a\"b\\c\nd"},
                              {record(0.0, 1.0, Category::Other)}));
  EXPECT_NE(render(file).find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(ChromeTraceTest, ByteIdenticalAcrossRenders) {
  SxtFile file;
  file.tracks.push_back(track(1, "cpu0", 9.2e-9, {"vec", "scalar"},
                              {record(100.0, 250.5, Category::VectorMul),
                               {350.5, 17.0, 1,
                                static_cast<std::uint8_t>(Category::Scalar)}}));
  EXPECT_EQ(render(file), render(file));
}

TEST(ChromeTraceTest, WriterReaderJsonExactBytes) {
  // A small trace through the whole path: Writer -> .sxt -> reader ->
  // JSON. It covers tag and name escaping, a dead epoch (spans before a
  // reset are compacted away), an empty skip-if-empty track, and a
  // second pid.
  const std::string path = ::testing::TempDir() + "chrome_exact.sxt";
  Writer::Options opt;
  opt.chunk_records = 2;  // the pre-reset spans reach the file as chunks
  auto writer = Writer::open(path, opt);
  ASSERT_NE(writer, nullptr);
  Writer::TrackSpec spec;
  spec.process_name = "node0";
  spec.thread_name = "runtime";
  TrackSink& runtime = writer->add_track(spec);
  spec.tid = 1;
  spec.thread_name = "cpu0";
  spec.seconds_per_tick = 0.5e-6;
  spec.skip_if_empty = true;
  TrackSink& cpu0 = writer->add_track(spec);
  spec.tid = 2;
  spec.thread_name = "cpu1";
  writer->add_track(spec);  // records nothing: omitted
  spec.pid = 1;
  spec.tid = 0;
  spec.process_name = "sched\t\"q\"";
  spec.thread_name = "scheduler";
  spec.seconds_per_tick = 1.0;
  spec.skip_if_empty = false;
  writer->add_track(spec);  // no spans, but a named track

  runtime.record(Category::Barrier, 2.0, 0.25, "barrier");
  for (int i = 0; i < 5; ++i) {
    cpu0.record(Category::Scalar, i, 1.0, "dead");
  }
  cpu0.on_reset();
  cpu0.record(Category::VectorAdd, 0.0, 3.0, "a\"b\\c\nd");
  cpu0.record(Category::BankConflict, 3.0, 1.5, "x\x01y");
  ASSERT_TRUE(writer->finalize());

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"node0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"runtime\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"cpu0\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"sched\\t\\\"q\\\"\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"scheduler\"}},\n"
      "{\"name\":\"barrier\",\"cat\":\"barrier\",\"ph\":\"X\","
      "\"ts\":2e+06,\"dur\":250000,\"pid\":0,\"tid\":0},\n"
      "{\"name\":\"a\\\"b\\\\c\\nd\",\"cat\":\"vector_add\",\"ph\":\"X\","
      "\"ts\":0,\"dur\":1.5,\"pid\":0,\"tid\":1},\n"
      "{\"name\":\"x\\u0001y\",\"cat\":\"bank_conflict\",\"ph\":\"X\","
      "\"ts\":1.5,\"dur\":0.75,\"pid\":0,\"tid\":1}\n"
      "]}\n";
  const SxtFile file = trace::stream::read_sxt_file(path);
  EXPECT_EQ(render(file), expected);
}

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(trace::format_double(0.0), "0");
  EXPECT_EQ(trace::format_double(1.5), "1.5");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(trace::format_double(v)), v);  // exact round trip
}

}  // namespace
