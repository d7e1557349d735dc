// util::EnvSwitch: the one switch type behind every observability plane.
// Pins the shared rule on a variable no plane reads — unset, empty or "0"
// is off with no path, any other value is on with that value as the path —
// and that the environment is read once, with set_on()/set_path()
// overriding it afterwards.
#include "util/env_switch.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace cbma::util {
namespace {

constexpr const char* kVar = "CBMA_TEST_ENV_SWITCH";

TEST(EnvSwitch, UnsetEmptyAndZeroAreOffWithNoPath) {
  ::unsetenv(kVar);
  const EnvSwitch unset(kVar);
  ::setenv(kVar, "", 1);
  const EnvSwitch empty(kVar);
  ::setenv(kVar, "0", 1);
  const EnvSwitch zero(kVar);
  ::unsetenv(kVar);
  for (const EnvSwitch* s : {&unset, &empty, &zero}) {
    EXPECT_FALSE(s->on());
    EXPECT_EQ(s->path(), "");
  }
}

TEST(EnvSwitch, AnyOtherValueIsOnWithThatPath) {
  ::setenv(kVar, "results/run.bin", 1);
  const EnvSwitch path(kVar);
  ::setenv(kVar, "1", 1);
  const EnvSwitch one(kVar);
  ::unsetenv(kVar);
  EXPECT_TRUE(path.on());
  EXPECT_EQ(path.path(), "results/run.bin");
  EXPECT_TRUE(one.on());
  EXPECT_EQ(one.path(), "1");
}

TEST(EnvSwitch, ReadsTheEnvironmentOnceAndSettersOverrideIt) {
  ::setenv(kVar, "first.bin", 1);
  EnvSwitch s(kVar);
  ::setenv(kVar, "0", 1);  // changes after the first read are not seen
  EXPECT_TRUE(s.on());
  EXPECT_EQ(s.path(), "first.bin");
  ::unsetenv(kVar);

  s.set_on(false);
  EXPECT_FALSE(s.on());
  EXPECT_EQ(s.path(), "first.bin");  // the flag and the path are independent
  s.set_path("second.bin");
  s.set_on(true);
  EXPECT_TRUE(s.on());
  EXPECT_EQ(s.path(), "second.bin");
}

TEST(EnvSwitch, AnOffSwitchCanBeTurnedOnWithAPathLater) {
  ::unsetenv(kVar);
  EnvSwitch s(kVar);
  ASSERT_FALSE(s.on());
  s.set_path("late.bin");
  EXPECT_FALSE(s.on());
  s.set_on(true);
  EXPECT_TRUE(s.on());
  EXPECT_EQ(s.path(), "late.bin");
}

TEST(EnvSwitch, SecondVariableTurnsItOnWithoutAPath) {
  constexpr const char* kAlso = "CBMA_TEST_ENV_SWITCH_ALSO";
  constexpr const char* kThird = "CBMA_TEST_ENV_SWITCH_THIRD";
  ::unsetenv(kVar);
  ::unsetenv(kAlso);
  ::setenv(kThird, "other.bin", 1);
  // Any listed variable turns the switch on, wherever it stands in the list.
  EnvSwitch on_by_third(kVar, {kAlso, kThird});
  EXPECT_TRUE(on_by_third.on());
  EXPECT_EQ(on_by_third.path(), "");
  ::setenv(kAlso, "other.bin", 1);
  ::unsetenv(kThird);
  EXPECT_TRUE(EnvSwitch(kVar, {kAlso, kThird}).on());
  // The listed variables follow the same rule: "0" leaves the switch off.
  ::setenv(kAlso, "0", 1);
  ::setenv(kThird, "0", 1);
  EXPECT_FALSE(EnvSwitch(kVar, {kAlso, kThird}).on());
  // The first variable still sets the path.
  ::setenv(kVar, "own.bin", 1);
  EnvSwitch own(kVar, {kAlso, kThird});
  EXPECT_TRUE(own.on());
  EXPECT_EQ(own.path(), "own.bin");
  ::unsetenv(kVar);
  ::unsetenv(kAlso);
  ::unsetenv(kThird);
}

}  // namespace
}  // namespace cbma::util
