// The knob table (common/knobs.hpp): strict checking of every value kind
// on strings at the one read (unset and empty keep the fallback, a
// malformed value throws config_error naming the knob), the unknown-name
// check, the once-only read of the process environment, and the knob
// lists of README and DESIGN.

#include "common/knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "machines/sweep.hpp"
#include "simd/simd.hpp"
#include "trace/category.hpp"

namespace ncar::knobs {
namespace {

/// The settings of an environment holding only `entry` ("NAME=value").
Settings one(const std::string& entry) {
  const char* env[] = {entry.c_str(), nullptr};
  return Settings(env);
}

/// Expects reading an environment of `name`=`value` to throw a
/// config_error that names the knob and the value, and returns its text.
std::string expect_rejected(const std::string& name,
                            const std::string& value) {
  try {
    one(name + "=" + value);
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const config_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(name + "=" + value + " is invalid: expected ", 0), 0u)
        << msg;
    EXPECT_NE(msg.find(", or unset/empty for the default"), std::string::npos)
        << msg;
    return msg;
  }
  return "";
}

/// A value row `k` accepts.
std::string accepted(const Knob& k) {
  switch (k.kind) {
    case Kind::String: return "x";
    case Kind::Positive: return "1";
    case Kind::IntRange: return std::to_string(k.lo);
    case Kind::Choice:
      return std::string(k.choices.substr(0, k.choices.find('|')));
  }
  return "";
}

TEST(BenchKnobs, UnsetOrEmptyKeepsTheFallback) {
  const Settings unset(nullptr);
  for (const std::string suffix : {"", "="}) {
    const auto s = [&](const char* name) {
      return suffix.empty() ? unset : one(name + suffix);
    };
    EXPECT_EQ(s("SX4NCAR_BENCH_RESULTS_DIR")
                  .string("SX4NCAR_BENCH_RESULTS_DIR", "dir"),
              "dir");
    EXPECT_EQ(s("SX4NCAR_YEAR_DAYS").positive("SX4NCAR_YEAR_DAYS", 365.0),
              365.0);
    EXPECT_EQ(s("SX4NCAR_HOST_THREADS").int_range("SX4NCAR_HOST_THREADS", 5),
              5);
    EXPECT_EQ(
        s("SX4NCAR_SWEEP_KERNEL").choice("SX4NCAR_SWEEP_KERNEL", "radabs"),
        "radabs");
    EXPECT_EQ(s("SX4NCAR_TRACE").choice("SX4NCAR_TRACE", "off"), "off");
  }
  // A string knob takes any non-empty value.
  EXPECT_EQ(one("SX4NCAR_SWEEP_REPORT=/tmp/r.json")
                .string("SX4NCAR_SWEEP_REPORT", "x"),
            "/tmp/r.json");
}

TEST(BenchKnobs, PositiveNumber) {
  const auto days = [](const Settings& s) {
    return s.positive("SX4NCAR_YEAR_DAYS", 365.0);
  };
  EXPECT_EQ(days(one("SX4NCAR_YEAR_DAYS=91")), 91.0);
  EXPECT_EQ(days(one("SX4NCAR_YEAR_DAYS=0.5")), 0.5);
  for (const char* bad : {"abc", "0", "-1", "1x", " 1", "+1", "inf", "nan",
                          "1e999"}) {
    const std::string msg = expect_rejected("SX4NCAR_YEAR_DAYS", bad);
    EXPECT_NE(msg.find("a decimal number above 0"), std::string::npos) << msg;
  }
}

TEST(BenchKnobs, Choice) {
  EXPECT_EQ(one("SX4NCAR_SWEEP_KERNEL=vfft")
                .choice("SX4NCAR_SWEEP_KERNEL", "radabs"),
            "vfft");
  for (const char* bad : {"bogus", "VFFT", "hint ", "radab", "radabs|hint"}) {
    const std::string msg = expect_rejected("SX4NCAR_SWEEP_KERNEL", bad);
    EXPECT_NE(msg.find("one of radabs | hint | vfft"), std::string::npos)
        << msg;
  }
}

TEST(BenchKnobs, SweepKernelChoicesAreTheProbeKernels) {
  const Knob& row =
      *std::find_if(kKnobs.begin(), kKnobs.end(), [](const Knob& k) {
        return k.name == "SX4NCAR_SWEEP_KERNEL";
      });
  std::string kernels;
  for (const std::string& k : machines::probe_kernels()) {
    kernels += (kernels.empty() ? "" : "|") + k;
  }
  EXPECT_EQ(row.choices, kernels);
}

TEST(BenchKnobs, EveryValueIsCheckedAtTheRead) {
  // A malformed value fails the read of the environment whether or not
  // anything reads its knob, next to well-formed ones.
  const char* env[] = {"SX4NCAR_HOST_THREADS=4", "SX4NCAR_TRACE=ful",
                       "SX4NCAR_YEAR_DAYS=91", nullptr};
  try {
    Settings s(env);
    ADD_FAILURE() << "SX4NCAR_TRACE=ful was accepted";
  } catch (const config_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("SX4NCAR_TRACE=ful is invalid", 0),
              0u)
        << e.what();
  }
  for (const Knob& k : kKnobs) {
    if (k.kind == Kind::String) continue;
    expect_rejected(std::string(k.name), "?");
  }
}

TEST(BenchKnobs, KnownKnobsAreSortedAndUnique) {
  for (std::size_t i = 1; i < kKnobs.size(); ++i) {
    EXPECT_LT(kKnobs[i - 1].name, kKnobs[i].name);
  }
  for (const Knob& k : kKnobs) {
    EXPECT_EQ(k.name.rfind("SX4NCAR_", 0), 0u) << k.name;
    EXPECT_FALSE(k.doc.empty()) << k.name;
    EXPECT_EQ(k.kind == Kind::Choice, !k.choices.empty()) << k.name;
    EXPECT_LE(k.lo, k.hi) << k.name;
  }
}

TEST(BenchKnobs, KnownAndForeignNamesPass) {
  std::vector<std::string> entries;
  for (const Knob& k : kKnobs) {
    entries.push_back(std::string(k.name) + "=" + accepted(k));
  }
  // Only the exact SX4NCAR_ prefix is ours.
  for (const char* other : {"PATH=/bin", "SX4NCARX=1", "MY_SX4NCAR_TRACE=1",
                            "sx4ncar_trace=full"}) {
    entries.emplace_back(other);
  }
  std::vector<const char*> env;
  for (const auto& e : entries) env.push_back(e.c_str());
  env.push_back(nullptr);
  EXPECT_NO_THROW(Settings{env.data()});
  EXPECT_NO_THROW(Settings{nullptr});
}

TEST(BenchKnobs, UnknownNameIsRejectedWithTheNearestKnownName) {
  struct Case {
    const char* entry;
    const char* name;
    const char* nearest;
  };
  const Case cases[] = {
      {"SX4NCAR_YEAR_DAY=3", "SX4NCAR_YEAR_DAY", "SX4NCAR_YEAR_DAYS"},
      {"SX4NCAR_TRACE_MAX_SPANS=10", "SX4NCAR_TRACE_MAX_SPANS",
       "SX4NCAR_TRACE"},
      {"SX4NCAR_HOST_THREAD=", "SX4NCAR_HOST_THREAD", "SX4NCAR_HOST_THREADS"},
      {"SX4NCAR_SWEEP_KERNELS=hint", "SX4NCAR_SWEEP_KERNELS",
       "SX4NCAR_SWEEP_KERNEL"},
  };
  for (const Case& c : cases) {
    const char* env[] = {"SX4NCAR_TRACE=off", c.entry, nullptr};
    try {
      Settings s(env);
      ADD_FAILURE() << c.entry << " was accepted";
    } catch (const config_error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(std::string(c.name) + " ", 0), 0u) << msg;
      EXPECT_NE(msg.find(std::string("nearest known name: ") + c.nearest),
                std::string::npos)
          << msg;
    }
  }
}

TEST(Knobs, ReadingAnUndeclaredNameOrKindIsAPreconditionError) {
  const Settings s(nullptr);
  EXPECT_THROW(s.string("SX4NCAR_NOT_A_ROW", ""), precondition_error);
  EXPECT_THROW(s.positive("SX4NCAR_TRACE", 1.0), precondition_error);
  EXPECT_THROW(s.choice("SX4NCAR_YEAR_DAYS", "365"), precondition_error);
}

TEST(Knobs, LibraryRejectsAnUnknownNameOnFirstRead) {
  // A fresh process (threadsafe style re-executes the binary), so the
  // trace mode below is the first read of its environment.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("SX4NCAR_YEAR_DAY", "3", 1);
        try {
          (void)trace::mode();
        } catch (const config_error& e) {
          std::fputs(e.what(), stderr);
          std::exit(2);
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(2),
      "SX4NCAR_YEAR_DAY is not a known knob \\(nearest known name: "
      "SX4NCAR_YEAR_DAYS\\)");
}

TEST(Knobs, ConcurrentFirstReadsAgree) {
  // Run alone (ctest runs every test in its own process) this is the
  // process's first read: eight threads race it, and all see one parse.
  struct Seen {
    const Settings* settings = nullptr;
    int threads = 0;
    trace::Mode mode = trace::Mode::Off;
    simd::Backend backend = simd::Backend::Scalar;
  };
  std::vector<Seen> seen(8);
  std::vector<std::thread> threads;
  for (Seen& s : seen) {
    threads.emplace_back([&s] {
      s.settings = &process();
      s.threads = ThreadPool::configured_host_threads();
      s.mode = trace::mode();
      s.backend = simd::active();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Seen& s : seen) {
    EXPECT_EQ(s.settings, seen[0].settings);
    EXPECT_EQ(s.threads, seen[0].threads);
    EXPECT_EQ(s.mode, seen[0].mode);
    EXPECT_EQ(s.backend, seen[0].backend);
  }
  EXPECT_GE(seen[0].threads, 1);
}

/// The SX4NCAR_* names the file at `path` mentions.
std::set<std::string> names_in(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  std::set<std::string> named;
  const std::regex token("SX4NCAR_[A-Z_]+");
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), token);
       it != std::sregex_iterator(); ++it) {
    named.insert(it->str());
  }
  return named;
}

TEST(Knobs, ReadmeNamesExactlyTheTable) {
  std::set<std::string> rows;
  for (const Knob& k : kKnobs) rows.emplace(k.name);
  EXPECT_EQ(names_in(SX4NCAR_README), rows);
  // DESIGN may name fewer knobs, but none that is not a row. The
  // compile-fail twin's macro (tests/compile_fail) is its one SX4NCAR_*
  // name that is not an environment variable.
  std::set<std::string> design = names_in(SX4NCAR_DESIGN);
  design.erase("SX4NCAR_COMPILE_TWIN");
  std::set<std::string> stray;
  std::set_difference(design.begin(), design.end(), rows.begin(), rows.end(),
                      std::inserter(stray, stray.end()));
  EXPECT_EQ(stray, std::set<std::string>{});
}

}  // namespace
}  // namespace ncar::knobs
