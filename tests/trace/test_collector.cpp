#include "trace/collector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "trace/category.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"

namespace {

using namespace ncar;
using trace::Category;
using trace::Collector;
using trace::Mode;
using trace::stream::TrackSink;
using trace::stream::Writer;

/// Pin the tracing mode for one test, restoring the previous mode on exit.
class ModeGuard {
public:
  explicit ModeGuard(Mode m) : before_(trace::mode()) { trace::set_mode(m); }
  ~ModeGuard() { trace::set_mode(before_); }

private:
  Mode before_;
};

TEST(Collector, CountersAccumulatePerCategory) {
  Collector c;
  c.count_total(10.0);
  c.count(Category::VectorAdd, 7.0);
  c.count_total(2.0);
  c.count(Category::Scalar, 2.0);
  EXPECT_DOUBLE_EQ(c.total_ticks(), 12.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::VectorAdd), 7.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::Scalar), 2.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::Other), 0.0);
}

/// A one-track .sxt writer to attach a Collector to.
struct Sink {
  explicit Sink(const char* name)
      : path(::testing::TempDir() + name),
        writer(Writer::open(path)),
        track(writer->add_track({})) {}
  std::string path;
  std::unique_ptr<Writer> writer;
  TrackSink& track;
};

TEST(Collector, SpansReachTheSinkOnlyInSpanModes) {
  Collector c;
  {
    ModeGuard g(Mode::Full);
    c.span(Category::VectorAdd, 0.0, 5.0, "no sink");  // a no-op
  }
  Sink sink("collector_modes.sxt");
  c.set_stream_sink(&sink.track);
  {
    ModeGuard g(Mode::Off);
    c.span(Category::VectorAdd, 0.0, 5.0, "off");
  }
  {
    ModeGuard g(Mode::Summary);
    c.span(Category::VectorAdd, 0.0, 5.0, "summary");
  }
  EXPECT_EQ(sink.track.live_records(), 0u);
  {
    ModeGuard g(Mode::Full);
    c.span(Category::VectorAdd, 3.0, 5.0, "full");
  }
  {
    ModeGuard g(Mode::Stream);
    c.span(Category::Scalar, 8.0, 1.0, "stream");
  }
  c.set_stream_sink(nullptr);
  ASSERT_TRUE(sink.writer->finalize());

  const auto file = trace::stream::read_sxt_file(sink.path);
  ASSERT_EQ(file.tracks.size(), 1u);
  const auto& t = file.tracks[0];
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(t.spans[0].start, 3.0);
  EXPECT_DOUBLE_EQ(t.spans[0].duration, 5.0);
  EXPECT_EQ(t.spans[0].category, static_cast<int>(Category::VectorAdd));
  EXPECT_EQ(t.tags[t.spans[0].tag], "full");
  EXPECT_EQ(t.tags[t.spans[1].tag], "stream");
}

TEST(Collector, ZeroDurationSpansAreSkipped) {
  ModeGuard g(Mode::Full);
  Sink sink("collector_zero.sxt");
  Collector c;
  c.set_stream_sink(&sink.track);
  c.span(Category::Scalar, 1.0, 0.0, "zero");
  c.span(Category::Scalar, 1.0, -1.0, "negative");
  EXPECT_EQ(sink.track.live_records(), 0u);
  c.set_stream_sink(nullptr);
}

TEST(Collector, AddCombinesCounterAndSpan) {
  ModeGuard g(Mode::Full);
  Sink sink("collector_add.sxt");
  Collector c;
  c.set_stream_sink(&sink.track);
  c.add(Category::IoDisk, 2.0, 3.0, "xfer");
  EXPECT_DOUBLE_EQ(c.total_ticks(), 3.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::IoDisk), 3.0);
  EXPECT_EQ(sink.track.live_records(), 1u);
  c.set_stream_sink(nullptr);
}

TEST(Collector, InternedTagsAreStable) {
  Collector c;
  std::string name = "job1";
  const char* p1 = c.intern(name);
  name = "job2";
  const char* p2 = c.intern(name);
  EXPECT_STREQ(p1, "job1");
  EXPECT_STREQ(p2, "job2");
  // Re-interning an existing name returns the same storage.
  EXPECT_EQ(c.intern("job1"), p1);
}

TEST(Collector, ResetClearsCountersAndSpansButKeepsTags) {
  ModeGuard g(Mode::Full);
  Sink sink("collector_reset.sxt");
  Collector c;
  c.set_stream_sink(&sink.track);
  const char* tag = c.intern("keep");
  c.add(Category::Scalar, 0.0, 1.0, tag);
  c.span(Category::Scalar, 1.0, 1.0, tag);
  EXPECT_EQ(sink.track.live_records(), 2u);
  c.reset();
  EXPECT_DOUBLE_EQ(c.total_ticks(), 0.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::Scalar), 0.0);
  // The sink starts a new epoch: the earlier spans will not be exported.
  EXPECT_EQ(sink.track.epoch(), 1u);
  EXPECT_EQ(sink.track.live_records(), 0u);
  EXPECT_STREQ(tag, "keep");  // interned storage survives reset
  c.set_stream_sink(nullptr);
}

TEST(Collector, SecondsPerTickIsRemembered) {
  Collector cpu_track(9.2e-9);
  Collector device_track;
  EXPECT_DOUBLE_EQ(cpu_track.seconds_per_tick(), 9.2e-9);
  EXPECT_DOUBLE_EQ(device_track.seconds_per_tick(), 1.0);
}

}  // namespace
