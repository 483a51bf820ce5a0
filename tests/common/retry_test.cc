#include "common/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/deadline.h"

namespace viewrewrite {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

TEST(RetryableStatusTest, OnlyTransientCodesRetry) {
  EXPECT_TRUE(IsRetryableStatus(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryableStatus(StatusCode::kInternal));

  EXPECT_FALSE(IsRetryableStatus(StatusCode::kOk));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kParseError));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kCorruption));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kPrivacyError));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kDeadlineExceeded));
}

TEST(RetryableStatusTest, ResourceExhaustedIsNeverRetryable) {
  // The overload-shed signal: retrying a shed re-offers the load that
  // caused the shedding, so a retry storm would amplify the very
  // overload the server is protecting itself from.
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kResourceExhausted));
}

TEST(BackoffTest, GrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(1);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = milliseconds(50);
  policy.jitter = 0;
  Backoff backoff(policy, /*seed=*/1);
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(1)));
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(2)));
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(4)));
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(8)));
}

TEST(BackoffTest, CapsAtMaxBackoff) {
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(4);
  policy.backoff_multiplier = 10.0;
  policy.max_backoff = milliseconds(20);
  policy.jitter = 0;
  Backoff backoff(policy, 1);
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(4)));
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(20)));
  EXPECT_EQ(backoff.Next(), nanoseconds(milliseconds(20)));
}

TEST(BackoffTest, JitterStaysInBandAndIsSeedDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(10);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = milliseconds(100);
  policy.jitter = 0.5;

  Backoff a(policy, 99);
  Backoff b(policy, 99);
  Backoff c(policy, 100);
  std::vector<nanoseconds> seq_a, seq_b, seq_c;
  nanoseconds nominal = policy.initial_backoff;
  for (int i = 0; i < 6; ++i) {
    const nanoseconds da = a.Next();
    seq_a.push_back(da);
    seq_b.push_back(b.Next());
    seq_c.push_back(c.Next());
    // In band: [1 - jitter, 1] times the nominal exponential delay.
    EXPECT_GE(da.count(), nominal.count() / 2);
    EXPECT_LE(da.count(), nominal.count());
    nominal = std::min(nanoseconds(nominal * 2), policy.max_backoff);
  }
  EXPECT_EQ(seq_a, seq_b);  // same seed, same schedule
  EXPECT_NE(seq_a, seq_c);  // different seed, different jitter
}

TEST(BackoffTest, DegenerateOptionsAreClamped) {
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(5);
  policy.backoff_multiplier = 0.1;  // clamped to >= 1: never shrinks
  policy.max_backoff = milliseconds(1);  // clamped up to initial
  policy.jitter = 7.0;  // clamped to [0, 1]
  Backoff backoff(policy, 3);
  for (int i = 0; i < 4; ++i) {
    const nanoseconds d = backoff.Next();
    EXPECT_GE(d.count(), 0);
    EXPECT_LE(d, nanoseconds(milliseconds(5)));
  }
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::max());
  EXPECT_FALSE(Deadline::Infinite().expired());
}

TEST(DeadlineTest, NonPositiveTimeoutIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(nanoseconds(0)).expired());
  EXPECT_TRUE(Deadline::After(milliseconds(-5)).expired());
  EXPECT_EQ(Deadline::After(nanoseconds(0)).remaining(),
            Deadline::Clock::duration::zero());
}

TEST(DeadlineTest, FutureDeadlineHasRemainingTime) {
  Deadline d = Deadline::After(std::chrono::hours(1));
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), std::chrono::minutes(59));
}

}  // namespace
}  // namespace viewrewrite
