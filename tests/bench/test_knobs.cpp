// Strict parsing of the bench mains' own knobs (harness/knobs.hpp): unset
// and empty keep the fallback, a malformed value throws config_error
// naming the knob.

#include "harness/knobs.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace ncar::bench {
namespace {

constexpr const char* kKnob = "BENCH_KNOBS_TEST_VALUE";  // read by nothing else

// Sets kKnob (nullptr unsets it) for one scope, then unsets it.
class ScopedKnob {
public:
  explicit ScopedKnob(const char* value) {
    if (value == nullptr) {
      ::unsetenv(kKnob);
    } else {
      ::setenv(kKnob, value, 1);
    }
  }
  ~ScopedKnob() { ::unsetenv(kKnob); }
  ScopedKnob(const ScopedKnob&) = delete;
  ScopedKnob& operator=(const ScopedKnob&) = delete;
};

/// Runs `read` under kKnob=value and expects a config_error that names
/// the knob and the value.
template <typename Read>
void expect_rejected(const char* value, Read read) {
  ScopedKnob k(value);
  try {
    read();
    ADD_FAILURE() << kKnob << "=" << value << " was accepted";
  } catch (const config_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::string(kKnob) + "=" + value), std::string::npos)
        << msg;
  }
}

TEST(BenchKnobs, UnsetOrEmptyKeepsTheFallback) {
  for (const char* v : {static_cast<const char*>(nullptr), ""}) {
    ScopedKnob k(v);
    EXPECT_EQ(knob_string(kKnob, "dir"), "dir");
    EXPECT_EQ(knob_positive(kKnob, 365.0), 365.0);
    EXPECT_EQ(knob_uint64(kKnob, 7), 7u);
    EXPECT_EQ(knob_choice(kKnob, "radabs", {"radabs", "hint"}), "radabs");
    EXPECT_EQ(knob_positive_list(kKnob, {9.2, 8}),
              (std::vector<double>{9.2, 8}));
  }
}

TEST(BenchKnobs, PositiveNumber) {
  {
    ScopedKnob k("91");
    EXPECT_EQ(knob_positive(kKnob, 365.0), 91.0);
  }
  {
    ScopedKnob k("0.5");
    EXPECT_EQ(knob_positive(kKnob, 365.0), 0.5);
  }
  for (const char* bad : {"abc", "0", "-1", "1x", " 1", "+1", "inf", "nan",
                          "1e999"}) {
    expect_rejected(bad, [] { return knob_positive(kKnob, 365.0); });
  }
}

TEST(BenchKnobs, UnsignedInteger) {
  {
    ScopedKnob k("42");
    EXPECT_EQ(knob_uint64(kKnob, 0), 42u);
  }
  {
    ScopedKnob k("18446744073709551615");
    EXPECT_EQ(knob_uint64(kKnob, 0), 18446744073709551615ull);
  }
  for (const char* bad :
       {"1.5", "-3", "abc", "42 ", "18446744073709551616", "0x10"}) {
    expect_rejected(bad, [] { return knob_uint64(kKnob, 0); });
  }
}

TEST(BenchKnobs, Choice) {
  const std::vector<std::string> kernels = {"radabs", "hint", "vfft"};
  {
    ScopedKnob k("vfft");
    EXPECT_EQ(knob_choice(kKnob, "radabs", kernels), "vfft");
  }
  for (const char* bad : {"bogus", "VFFT", "hint ", "radab"}) {
    expect_rejected(bad, [&] { return knob_choice(kKnob, "radabs", kernels); });
  }
  ScopedKnob k("bogus");
  try {
    knob_choice(kKnob, "radabs", kernels);
    ADD_FAILURE() << "bogus was accepted";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("radabs | hint | vfft"),
              std::string::npos)
        << e.what();
  }
}

TEST(BenchKnobs, PositiveList) {
  {
    ScopedKnob k("1,2,4");
    EXPECT_EQ(knob_positive_list(kKnob, {}), (std::vector<double>{1, 2, 4}));
  }
  {
    ScopedKnob k("9.2");
    EXPECT_EQ(knob_positive_list(kKnob, {}), (std::vector<double>{9.2}));
  }
  for (const char* bad : {"1,x", "1,,2", ",1", "1,", "0,1", "1;2", "-4"}) {
    expect_rejected(bad, [] { return knob_positive_list(kKnob, {1}); });
  }
}

}  // namespace
}  // namespace ncar::bench
