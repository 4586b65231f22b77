// The injectable clock: retry schedules must be testable with zero real
// sleeping.

#include <gtest/gtest.h>

#include <vector>

#include "util/clock.h"

namespace rgleak::util {
namespace {

TEST(FakeClock, AdvancesOnlyVirtually) {
  FakeClock clock(100.0);
  EXPECT_EQ(clock.now_ms(), 100.0);
  clock.sleep_ms(40.0);
  EXPECT_EQ(clock.now_ms(), 140.0);
  clock.advance_ms(10.0);
  EXPECT_EQ(clock.now_ms(), 150.0);
  clock.sleep_ms(2.5);
  const std::vector<double> sleeps = clock.sleeps();
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], 40.0);
  EXPECT_EQ(sleeps[1], 2.5);
  EXPECT_EQ(clock.total_slept_ms(), 42.5);
}

TEST(SystemClock, IsMonotonic) {
  SystemClock& clock = SystemClock::instance();
  const double a = clock.now_ms();
  const double b = clock.now_ms();
  EXPECT_GE(b, a);
  clock.sleep_ms(0.0);  // no-op, must not block
  clock.sleep_ms(-5.0);
}

}  // namespace
}  // namespace rgleak::util
