#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace viewrewrite {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Instance().DisableAll(); }
};

Status GuardedOperation(const char* point) {
  VR_FAULT_POINT(point);
  return Status::OK();
}

TEST_F(FaultInjectionTest, UnarmedPointsCostNothingAndPass) {
  EXPECT_FALSE(FaultInjection::Armed());
  EXPECT_TRUE(GuardedOperation("test.unarmed").ok());
  EXPECT_EQ(FaultInjection::Instance().HitCount("test.unarmed"), 0u);
}

TEST_F(FaultInjectionTest, NthTriggerFiresExactlyOnceOnNthHit) {
  FaultInjection::Instance().FailOnNth("test.nth", 3);
  EXPECT_TRUE(FaultInjection::Armed());
  EXPECT_TRUE(GuardedOperation("test.nth").ok());
  EXPECT_TRUE(GuardedOperation("test.nth").ok());
  Status st = GuardedOperation("test.nth");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // Message names the point so quarantine records are self-describing.
  EXPECT_NE(st.message().find("test.nth"), std::string::npos);
  // Fires at most once.
  EXPECT_TRUE(GuardedOperation("test.nth").ok());
  EXPECT_TRUE(GuardedOperation("test.nth").ok());
  EXPECT_EQ(FaultInjection::Instance().HitCount("test.nth"), 5u);
}

TEST_F(FaultInjectionTest, EveryNTriggerFiresPeriodically) {
  FaultInjection::Instance().FailEveryN("test.every", 2);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(!GuardedOperation("test.every").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, true}));
}

TEST_F(FaultInjectionTest, ProbabilityTriggerIsSeededAndDeterministic) {
  auto sample = [&](uint64_t seed) {
    FaultInjection::Instance().FailWithProbability("test.prob", 0.5, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!GuardedOperation("test.prob").ok());
    }
    FaultInjection::Instance().Disable("test.prob");
    return fired;
  };
  std::vector<bool> a = sample(7);
  std::vector<bool> b = sample(7);
  EXPECT_EQ(a, b);
  // At p=0.5 over 64 hits both outcomes occur with overwhelming
  // probability; this also guards against always/never-firing bugs.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
  std::vector<bool> c = sample(8);
  EXPECT_NE(a, c);
}

TEST_F(FaultInjectionTest, CustomStatusIsReturnedVerbatim) {
  FaultInjection::Instance().FailOnNth(
      "test.custom", 1, Status::PrivacyError("injected privacy failure"));
  Status st = GuardedOperation("test.custom");
  EXPECT_EQ(st.code(), StatusCode::kPrivacyError);
  EXPECT_EQ(st.message(), "injected privacy failure");
}

TEST_F(FaultInjectionTest, ArmingOnePointDoesNotAffectOthers) {
  FaultInjection::Instance().FailOnNth("test.a", 1);
  EXPECT_TRUE(GuardedOperation("test.b").ok());
  EXPECT_EQ(FaultInjection::Instance().HitCount("test.b"), 0u);
  EXPECT_FALSE(GuardedOperation("test.a").ok());
}

TEST_F(FaultInjectionTest, DisableAllDisarmsFastPath) {
  FaultInjection::Instance().FailOnNth("test.a", 1);
  FaultInjection::Instance().FailEveryN("test.b", 1);
  EXPECT_TRUE(FaultInjection::Armed());
  FaultInjection::Instance().DisableAll();
  EXPECT_FALSE(FaultInjection::Armed());
  EXPECT_TRUE(GuardedOperation("test.a").ok());
  EXPECT_TRUE(GuardedOperation("test.b").ok());
}

TEST_F(FaultInjectionTest, ReArmingResetsHitCount) {
  FaultInjection::Instance().FailOnNth("test.rearm", 2);
  EXPECT_TRUE(GuardedOperation("test.rearm").ok());
  EXPECT_FALSE(GuardedOperation("test.rearm").ok());
  FaultInjection::Instance().FailOnNth("test.rearm", 2);
  EXPECT_EQ(FaultInjection::Instance().HitCount("test.rearm"), 0u);
  EXPECT_TRUE(GuardedOperation("test.rearm").ok());
  EXPECT_FALSE(GuardedOperation("test.rearm").ok());
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault fault = ScopedFault::EveryN("test.scoped", 1);
    EXPECT_FALSE(GuardedOperation("test.scoped").ok());
  }
  EXPECT_FALSE(FaultInjection::Armed());
  EXPECT_TRUE(GuardedOperation("test.scoped").ok());
}

TEST_F(FaultInjectionTest, DelayOnNthHoldsOnlyTheNthHitAndPasses) {
  using Clock = std::chrono::steady_clock;
  constexpr std::chrono::milliseconds kDelay(200);
  FaultInjection::Instance().DelayOnNth("test.delay", 2, kDelay);
  std::vector<Clock::duration> took;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    EXPECT_TRUE(GuardedOperation("test.delay").ok()) << "hit " << i + 1;
    took.push_back(Clock::now() - t0);
  }
  EXPECT_LT(took[0], kDelay);
  EXPECT_GE(took[1], kDelay);
  EXPECT_LT(took[2], kDelay);  // fires at most once, like FailOnNth
  EXPECT_EQ(FaultInjection::Instance().HitCount("test.delay"), 3u);
}

TEST_F(FaultInjectionTest, DelaySleepsOutsideTheRegistryLock) {
  using Clock = std::chrono::steady_clock;
  constexpr std::chrono::milliseconds kDelay(1500);
  FaultInjection::Instance().DelayOnNth("test.slow", 1, kDelay);
  FaultInjection::Instance().FailOnNth("test.other", 1);

  const Clock::time_point t0 = Clock::now();
  std::future<Status> slow = std::async(std::launch::async, [] {
    return GuardedOperation("test.slow");
  });
  // HitCount and Check both take the registry lock: while the slow hit
  // sleeps they must still return promptly.
  while (FaultInjection::Instance().HitCount("test.slow") == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(GuardedOperation("test.other").ok());
  EXPECT_LT(Clock::now() - t0, kDelay);

  EXPECT_TRUE(slow.get().ok());
  EXPECT_GE(Clock::now() - t0, kDelay);
}

}  // namespace
}  // namespace viewrewrite
