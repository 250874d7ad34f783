// The knob table (common/knobs.hpp): strict parsing of every value kind on
// strings (unset and empty keep the fallback, a malformed value throws
// config_error naming the knob), the unknown-name check, the once-only
// read of the process environment, and README's knob list.

#include "common/knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "simd/simd.hpp"
#include "trace/category.hpp"

namespace ncar::knobs {
namespace {

/// The settings of an environment holding only `entry` ("NAME=value").
Settings one(const std::string& entry) {
  const char* env[] = {entry.c_str(), nullptr};
  return Settings(env);
}

/// Runs `read` on the settings of `name`=`value` and expects a
/// config_error that names the knob and the value, and returns its text.
template <typename Read>
std::string expect_rejected(const std::string& name, const std::string& value,
                            Read read) {
  const Settings s = one(name + "=" + value);
  try {
    read(s);
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

const std::vector<std::string> kKernels = {"radabs", "hint", "vfft"};

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
    EXPECT_EQ(s("SX4NCAR_YEAR_SEED").uint64("SX4NCAR_YEAR_SEED", 7), 7u);
    EXPECT_EQ(s("SX4NCAR_HOST_THREADS").int_range("SX4NCAR_HOST_THREADS", 5),
              5);
    EXPECT_EQ(s("SX4NCAR_SWEEP_KERNEL")
                  .choice("SX4NCAR_SWEEP_KERNEL", "radabs", kKernels),
              "radabs");
    EXPECT_EQ(s("SX4NCAR_TRACE").choice("SX4NCAR_TRACE", "off"), "off");
    EXPECT_EQ(s("SX4NCAR_SWEEP_CLOCKS")
                  .positive_list("SX4NCAR_SWEEP_CLOCKS", {9.2, 8}),
              (std::vector<double>{9.2, 8}));
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
    const std::string msg = expect_rejected("SX4NCAR_YEAR_DAYS", bad, days);
    EXPECT_NE(msg.find("a decimal number above 0"), std::string::npos) << msg;
  }
}

TEST(BenchKnobs, UnsignedInteger) {
  const auto seed = [](const Settings& s) {
    return s.uint64("SX4NCAR_YEAR_SEED", 0);
  };
  EXPECT_EQ(seed(one("SX4NCAR_YEAR_SEED=42")), 42u);
  EXPECT_EQ(seed(one("SX4NCAR_YEAR_SEED=18446744073709551615")),
            18446744073709551615ull);
  for (const char* bad :
       {"1.5", "-3", "abc", "42 ", "18446744073709551616", "0x10"}) {
    expect_rejected("SX4NCAR_YEAR_SEED", bad, seed);
  }
}

TEST(BenchKnobs, Choice) {
  const auto kernel = [](const Settings& s) {
    return s.choice("SX4NCAR_SWEEP_KERNEL", "radabs", kKernels);
  };
  EXPECT_EQ(kernel(one("SX4NCAR_SWEEP_KERNEL=vfft")), "vfft");
  for (const char* bad : {"bogus", "VFFT", "hint ", "radab"}) {
    const std::string msg =
        expect_rejected("SX4NCAR_SWEEP_KERNEL", bad, kernel);
    EXPECT_NE(msg.find("one of radabs | hint | vfft"), std::string::npos)
        << msg;
  }
}

TEST(BenchKnobs, PositiveList) {
  const auto pipes = [](const Settings& s) {
    return s.positive_list("SX4NCAR_SWEEP_PIPES", {1});
  };
  EXPECT_EQ(pipes(one("SX4NCAR_SWEEP_PIPES=1,2,4")),
            (std::vector<double>{1, 2, 4}));
  EXPECT_EQ(pipes(one("SX4NCAR_SWEEP_PIPES=9.2")), (std::vector<double>{9.2}));
  for (const char* bad : {"1,x", "1,,2", ",1", "1,", "0,1", "1;2", "-4"}) {
    expect_rejected("SX4NCAR_SWEEP_PIPES", bad, pipes);
  }
}

TEST(BenchKnobs, KnownKnobsAreSortedAndUnique) {
  for (std::size_t i = 1; i < kKnobs.size(); ++i) {
    EXPECT_LT(kKnobs[i - 1].name, kKnobs[i].name);
  }
  for (const Knob& k : kKnobs) {
    EXPECT_EQ(k.name.rfind("SX4NCAR_", 0), 0u) << k.name;
    EXPECT_FALSE(k.doc.empty()) << k.name;
    EXPECT_TRUE(k.kind == Kind::Choice || k.choices.empty()) << k.name;
    EXPECT_LE(k.lo, k.hi) << k.name;
  }
}

TEST(BenchKnobs, KnownAndForeignNamesPass) {
  std::vector<std::string> entries;
  for (const Knob& k : kKnobs) entries.push_back(std::string(k.name) + "=1");
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
      {"SX4NCAR_SWEEP_PIPE", "SX4NCAR_SWEEP_PIPE", "SX4NCAR_SWEEP_PIPES"},
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
  // A choice row takes its choices from the row or the caller, not both.
  EXPECT_THROW(s.choice("SX4NCAR_TRACE", "off", {"off"}), precondition_error);
  EXPECT_THROW(s.choice("SX4NCAR_SWEEP_KERNEL", "radabs"), precondition_error);
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

TEST(Knobs, ReadmeNamesExactlyTheTable) {
  std::ifstream in(SX4NCAR_README);
  ASSERT_TRUE(in) << SX4NCAR_README;
  std::stringstream text;
  text << in.rdbuf();
  const std::string readme = text.str();
  std::set<std::string> named;
  const std::regex token("SX4NCAR_[A-Z_]+");
  for (auto it = std::sregex_iterator(readme.begin(), readme.end(), token);
       it != std::sregex_iterator(); ++it) {
    named.insert(it->str());
  }
  std::set<std::string> rows;
  for (const Knob& k : kKnobs) rows.emplace(k.name);
  EXPECT_EQ(named, rows);
}

}  // namespace
}  // namespace ncar::knobs
