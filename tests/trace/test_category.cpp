#include "trace/category.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "common/error.hpp"

namespace {

using namespace ncar;
using trace::Category;
using trace::Mode;

TEST(Category, NamesRoundTripAndAreUnique) {
  std::set<std::string> seen;
  for (int i = 0; i < trace::kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    const char* name = trace::to_string(c);
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    Category back = Category::Other;
    EXPECT_TRUE(trace::category_from_string(name, back)) << name;
    EXPECT_EQ(back, c) << name;
  }
}

TEST(Category, NamesAreSnakeCase) {
  for (int i = 0; i < trace::kCategoryCount; ++i) {
    const std::string name = trace::to_string(static_cast<Category>(i));
    for (char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
  }
}

TEST(Category, FromStringRejectsUnknown) {
  Category out = Category::Other;
  EXPECT_FALSE(trace::category_from_string("not_a_category", out));
  EXPECT_FALSE(trace::category_from_string("", out));
}

TEST(Category, OtherIsLastAndIsTheResidualBucket) {
  EXPECT_EQ(trace::kCategoryCount,
            static_cast<int>(Category::Other) + 1);
}

TEST(Category, RuntimeCategoriesAreNotCharged) {
  EXPECT_FALSE(trace::is_charged_category(Category::Barrier));
  EXPECT_FALSE(trace::is_charged_category(Category::Idle));
  EXPECT_TRUE(trace::is_charged_category(Category::VectorAdd));
  EXPECT_TRUE(trace::is_charged_category(Category::BankConflict));
  EXPECT_TRUE(trace::is_charged_category(Category::GatherScatter));
  EXPECT_TRUE(trace::is_charged_category(Category::Other));
}

TEST(Mode, ParsesEnvValues) {
  EXPECT_EQ(trace::mode_from_env(nullptr), Mode::Off);
  EXPECT_EQ(trace::mode_from_env(""), Mode::Off);
  EXPECT_EQ(trace::mode_from_env("off"), Mode::Off);
  EXPECT_EQ(trace::mode_from_env("summary"), Mode::Summary);
  EXPECT_EQ(trace::mode_from_env("full"), Mode::Full);
  EXPECT_EQ(trace::mode_from_env("stream"), Mode::Stream);
  // Anything else is an error that names the knob and its values.
  for (const char* bad : {"bogus", "ful", "FULL", "on", " full"}) {
    try {
      trace::mode_from_env(bad);
      ADD_FAILURE() << "SX4NCAR_TRACE=" << bad << " was accepted";
    } catch (const config_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("SX4NCAR_TRACE=") + bad),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("off, summary, full or stream"), std::string::npos)
          << what;
    }
  }
}

TEST(Mode, SetModeOverrides) {
  const Mode before = trace::mode();
  trace::set_mode(Mode::Full);
  EXPECT_EQ(trace::mode(), Mode::Full);
  trace::set_mode(before);
  EXPECT_EQ(trace::mode(), before);
}

}  // namespace
