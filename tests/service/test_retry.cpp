// Retry classification must follow the error taxonomy, and the backoff
// between attempts must double from the base up to the cap.

#include <gtest/gtest.h>

#include "service/retry.h"
#include "util/error.h"

namespace rgleak::service {
namespace {

TEST(Retryable, FollowsTheTaxonomy) {
  // Transient-looking failures retry (with method degradation)...
  EXPECT_TRUE(retryable(ErrorCode::kNumerical));
  EXPECT_TRUE(retryable(ErrorCode::kDeadline));
  EXPECT_TRUE(retryable(ErrorCode::kIo));
  // ...while failures the input guarantees to repeat are permanent, and a
  // contract violation is a bug that retrying would only hide.
  EXPECT_FALSE(retryable(ErrorCode::kParse));
  EXPECT_FALSE(retryable(ErrorCode::kConfig));
  EXPECT_FALSE(retryable(ErrorCode::kContract));
}

TEST(RetryBackoff, DoublesFromTheBaseUpToTheCap) {
  BackoffPolicy policy;
  policy.base_ms = 40.0;
  policy.cap_ms = 200.0;
  EXPECT_EQ(backoff_ms(policy, 1), 40.0);
  EXPECT_EQ(backoff_ms(policy, 2), 80.0);
  EXPECT_EQ(backoff_ms(policy, 3), 160.0);
  EXPECT_EQ(backoff_ms(policy, 4), 200.0);
  EXPECT_EQ(backoff_ms(policy, 4000), 200.0);  // no overflow past the cap
}

}  // namespace
}  // namespace rgleak::service
