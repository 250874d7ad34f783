#include "trace/category.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/knobs.hpp"

namespace {

using namespace ncar;
using trace::Category;
using trace::Mode;

TEST(Category, NamesRoundTripAndAreUnique) {
  std::set<std::string> seen;
  for (int i = 0; i < trace::kCategoryCount; ++i) {
    const char* name = trace::to_string(static_cast<Category>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
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
  // SX4NCAR_TRACE through the knob table, on strings: unset and empty are
  // off, and every mode's name is accepted as itself.
  const auto parse = [](const char* entry) {
    const char* env[] = {entry, nullptr};
    return knobs::Settings(env).choice("SX4NCAR_TRACE", "off");
  };
  EXPECT_EQ(parse("PATH=/bin"), "off");
  EXPECT_EQ(parse("SX4NCAR_TRACE="), "off");
  for (const Mode m : {Mode::Off, Mode::Summary, Mode::Full, Mode::Stream}) {
    const std::string name = trace::to_string(m);
    EXPECT_EQ(parse(("SX4NCAR_TRACE=" + name).c_str()), name);
  }
  // Anything else is an error that names the knob and its values.
  for (const char* bad : {"bogus", "ful", "FULL", "on", " full"}) {
    try {
      parse((std::string("SX4NCAR_TRACE=") + bad).c_str());
      ADD_FAILURE() << "SX4NCAR_TRACE=" << bad << " was accepted";
    } catch (const config_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("SX4NCAR_TRACE=") + bad),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("one of off | summary | full | stream"),
                std::string::npos)
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
