#include "serve/overload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "common/fault_injection.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"

namespace viewrewrite {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

/// Manually advanced clock injected into the limiter/controller, exactly
/// like the circuit-breaker tests: no sleeping, fully deterministic.
struct FakeClock {
  steady_clock::time_point now = steady_clock::time_point{};
  AdaptiveLimiter::ClockFn fn() {
    return [this] { return now; };
  }
};

TEST(AdaptiveLimiterTest, DisabledLimiterAdmitsEverything) {
  AdaptiveLimiterOptions options;  // enabled = false
  AdaptiveLimiter limiter(options);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(limiter.TryAcquire(Priority::kBackground));
  }
  EXPECT_EQ(limiter.in_flight(), 0u);
}

TEST(AdaptiveLimiterTest, AcquireReleaseTracksInFlightAgainstLimit) {
  FakeClock clock;
  AdaptiveLimiterOptions options;
  options.enabled = true;
  options.initial_limit = 3;
  options.min_limit = 1;
  AdaptiveLimiter limiter(options, clock.fn());
  EXPECT_TRUE(limiter.TryAcquire(Priority::kInteractive));
  EXPECT_TRUE(limiter.TryAcquire(Priority::kInteractive));
  EXPECT_TRUE(limiter.TryAcquire(Priority::kInteractive));
  EXPECT_FALSE(limiter.TryAcquire(Priority::kInteractive));
  EXPECT_EQ(limiter.in_flight(), 3u);
  limiter.Release();
  EXPECT_TRUE(limiter.TryAcquire(Priority::kInteractive));
  EXPECT_FALSE(limiter.TryAcquire(Priority::kInteractive));
}

TEST(AdaptiveLimiterTest, LowerClassesLoseHeadroomFirst) {
  FakeClock clock;
  AdaptiveLimiterOptions options;
  options.enabled = true;
  options.initial_limit = 10;
  options.min_limit = 1;
  options.batch_fraction = 0.9;       // batch cap = 9
  options.background_fraction = 0.5;  // background cap = 5
  AdaptiveLimiter limiter(options, clock.fn());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(limiter.TryAcquire(Priority::kInteractive));
  }
  // At 5 in flight, background is squeezed out but batch and interactive
  // still fit — shedding is lowest-class-first, never all-at-once.
  EXPECT_FALSE(limiter.TryAcquire(Priority::kBackground));
  EXPECT_TRUE(limiter.TryAcquire(Priority::kBatch));
  for (int i = 6; i < 9; ++i) {
    ASSERT_TRUE(limiter.TryAcquire(Priority::kBatch));
  }
  // At 9, batch is squeezed out too; interactive may use the full limit.
  EXPECT_FALSE(limiter.TryAcquire(Priority::kBatch));
  EXPECT_TRUE(limiter.TryAcquire(Priority::kInteractive));
  EXPECT_FALSE(limiter.TryAcquire(Priority::kInteractive));
}

TEST(AdaptiveLimiterTest, OverTargetLatencyDecreasesMultiplicatively) {
  FakeClock clock;
  AdaptiveLimiterOptions options;
  options.enabled = true;
  options.initial_limit = 100;
  options.min_limit = 2;
  options.target_queue_latency = milliseconds(2);
  options.decrease_factor = 0.5;
  options.decrease_cooldown = milliseconds(10);
  options.ewma_alpha = 1.0;  // no smoothing: each sample is the signal
  AdaptiveLimiter limiter(options, clock.fn());

  limiter.OnQueueLatency(milliseconds(20));
  EXPECT_DOUBLE_EQ(limiter.limit(), 50);
  EXPECT_EQ(limiter.decreases(), 1u);

  // Within the cooldown further over-target samples must not cut again:
  // one congestion episode costs one cut, not one per queued sample.
  limiter.OnQueueLatency(milliseconds(20));
  limiter.OnQueueLatency(milliseconds(20));
  EXPECT_DOUBLE_EQ(limiter.limit(), 50);
  EXPECT_EQ(limiter.decreases(), 1u);

  clock.now += milliseconds(11);
  limiter.OnQueueLatency(milliseconds(20));
  EXPECT_DOUBLE_EQ(limiter.limit(), 25);
  EXPECT_EQ(limiter.decreases(), 2u);
}

TEST(AdaptiveLimiterTest, BelowTargetLatencyIncreasesAdditively) {
  FakeClock clock;
  AdaptiveLimiterOptions options;
  options.enabled = true;
  options.initial_limit = 10;
  options.max_limit = 20;
  options.target_queue_latency = milliseconds(2);
  options.increase = 1.0;
  options.ewma_alpha = 1.0;
  AdaptiveLimiter limiter(options, clock.fn());

  const double before = limiter.limit();
  limiter.OnQueueLatency(microseconds(100));
  const double after = limiter.limit();
  EXPECT_GT(after, before);
  // Gradient probing: the step is ~increase/limit, far below a full slot.
  EXPECT_LT(after - before, 1.0);
  EXPECT_GE(limiter.increases(), 1u);

  // The limit never grows past max_limit.
  for (int i = 0; i < 10000; ++i) limiter.OnQueueLatency(microseconds(100));
  EXPECT_LE(limiter.limit(), 20.0);
}

TEST(AdaptiveLimiterTest, AimdConvergesUnderSyntheticLatencyModel) {
  // Synthetic plant: workers drain one request per 100us, so the queue
  // latency a dequeue observes is roughly in_flight x 100us with
  // in_flight tracking the limit under saturation. The 2ms target then
  // has its equilibrium at limit = 20: above it latency is over target
  // (decrease), below it under (increase). AIMD must converge into a
  // band around 20 from both directions and stay there.
  for (double start : {100.0, 3.0}) {
    FakeClock clock;
    AdaptiveLimiterOptions options;
    options.enabled = true;
    options.initial_limit = start;
    options.min_limit = 2;
    options.max_limit = 512;
    options.target_queue_latency = milliseconds(2);
    options.decrease_factor = 0.7;
    options.decrease_cooldown = milliseconds(10);
    options.ewma_alpha = 0.5;
    AdaptiveLimiter limiter(options, clock.fn());

    for (int i = 0; i < 4000; ++i) {
      clock.now += milliseconds(1);
      const auto observed =
          microseconds(static_cast<int64_t>(limiter.limit() * 100));
      limiter.OnQueueLatency(observed);
    }
    EXPECT_GT(limiter.limit(), 10.0) << "start=" << start;
    EXPECT_LT(limiter.limit(), 32.0) << "start=" << start;
    EXPECT_GT(limiter.increases(), 0u);
    EXPECT_GT(limiter.decreases(), 0u);
  }
}

TEST(OverloadControllerTest, BrownoutActivatesOnSustainedShedsAndDecays) {
  FakeClock clock;
  OverloadOptions options;
  options.enable_brownout = true;
  options.brownout_window = milliseconds(100);
  options.brownout_shed_threshold = 3;
  OverloadController controller(options, clock.fn());

  EXPECT_FALSE(controller.brownout_active());
  controller.RecordShed();
  controller.RecordShed();
  EXPECT_FALSE(controller.brownout_active());
  controller.RecordShed();
  EXPECT_TRUE(controller.brownout_active());

  // The first quiet window keeps brownout on (the closing window met the
  // threshold); a second quiet window deactivates it — hysteresis, not a
  // flap per sample.
  clock.now += milliseconds(150);
  EXPECT_TRUE(controller.brownout_active());
  clock.now += milliseconds(150);
  EXPECT_FALSE(controller.brownout_active());
}

TEST(OverloadControllerTest, BrownoutDisabledNeverActivates) {
  FakeClock clock;
  OverloadOptions options;  // enable_brownout = false
  options.brownout_shed_threshold = 1;
  OverloadController controller(options, clock.fn());
  for (int i = 0; i < 100; ++i) controller.RecordShed();
  EXPECT_FALSE(controller.brownout_active());
}

TEST(OverloadControllerTest, HopelessRequiresWarmupAndShortDeadline) {
  OverloadOptions options;
  options.service_warmup_samples = 3;
  options.service_ewma_alpha = 1.0;
  OverloadController controller(options);

  // Before warmup, nothing is hopeless — the estimate is noise.
  controller.RecordServiceTime(milliseconds(50));
  controller.RecordServiceTime(milliseconds(50));
  EXPECT_FALSE(controller.Hopeless(Deadline::After(microseconds(1))));

  controller.RecordServiceTime(milliseconds(50));
  // 50ms estimated service vs ~1ms remaining: computing it would be
  // wasted work; vs 500ms remaining: plenty of budget.
  EXPECT_TRUE(controller.Hopeless(Deadline::After(milliseconds(1))));
  EXPECT_FALSE(controller.Hopeless(Deadline::After(milliseconds(500))));
  // Requests without a deadline are never dropped.
  EXPECT_FALSE(controller.Hopeless(Deadline::Infinite()));
}

TEST(OverloadControllerTest, OverloadedReflectsLimiterSaturation) {
  FakeClock clock;
  OverloadOptions options;
  options.limiter.enabled = true;
  options.limiter.initial_limit = 2;
  options.limiter.min_limit = 1;
  OverloadController controller(options, clock.fn());
  EXPECT_FALSE(controller.overloaded());
  EXPECT_TRUE(controller.Admit(Priority::kInteractive));
  EXPECT_TRUE(controller.Admit(Priority::kInteractive));
  EXPECT_TRUE(controller.overloaded());
  controller.Release();
  controller.Release();
  EXPECT_FALSE(controller.overloaded());
}

// ---- Integration through QueryServer. --------------------------------------

class OverloadServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = serve_testing::MakeServeContext(42, "overload");
    ASSERT_NE(ctx_.store, nullptr);
  }
  void TearDown() override { FaultInjection::Instance().DisableAll(); }

  serve_testing::ServeContext ctx_;
};

TEST_F(OverloadServeTest, ForcedShedResolvesFastWithResourceExhausted) {
  QueryServer server(ctx_.store, ctx_.db->schema(), ServeOptions{});
  ScopedFault fault = ScopedFault::EveryN(faults::kServeOverload, 1);
  auto future = server.Submit(ctx_.workload[0]);
  // A shed never occupies a queue slot: the future is ready the moment
  // Submit returns — the "resolve fast with a typed error" contract.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto got = future.get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.shed_admission, 1u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.failed, 0u);  // refused at admission, never accepted
}

TEST_F(OverloadServeTest, BrownoutServesStaleCacheAnswerInsteadOfShedding) {
  ServeOptions options;
  options.overload.enable_brownout = true;
  options.overload.brownout_shed_threshold = 1;  // first shed activates
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  // Prime the cache with a live answer.
  auto primed = server.Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(primed.ok()) << primed.status();
  const double expected = primed->value;

  ScopedFault fault = ScopedFault::EveryN(faults::kServeOverload, 1);
  // Cached query: brownout converts the shed into a stale cache answer
  // with exactly the value the live path produced.
  auto browned = server.Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(browned.ok()) << browned.status();
  EXPECT_TRUE(browned->stale);
  EXPECT_EQ(browned->value, expected);

  // Uncached query: nothing to brown out with, typed shed surfaces.
  auto shed = server.Submit(ctx_.workload[1]).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.brownout_served, 1u);
  EXPECT_EQ(stats.shed_admission, 1u);
  EXPECT_EQ(stats.completed, 2u);   // primed + brownout
  EXPECT_EQ(stats.submitted, 1u);   // only the primer was accepted
  EXPECT_TRUE(stats.brownout_active);
}

TEST_F(OverloadServeTest, SaturatedLimiterShedsRealTraffic) {
  ServeOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  options.overload.limiter.enabled = true;
  options.overload.limiter.initial_limit = 1;
  options.overload.limiter.min_limit = 1;
  options.overload.limiter.max_limit = 1;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  std::future<Result<ServedAnswer>> slow;
  {
    // Pin the single worker at its answer stage so the limiter's one slot
    // stays held while the second Submit arrives.
    ScopedFault hold =
        ScopedFault::DelayOnNth(faults::kServeAnswer, 1, milliseconds(200));
    slow = server.Submit(ctx_.workload[0]);
    // Give the worker time to dequeue and enter the delay. The
    // slot is held from admission to completion either way, so the shed
    // below is deterministic even if this race is lost.
    std::this_thread::sleep_for(milliseconds(20));
    auto shed = server.Submit(ctx_.workload[1]).get();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  }
  auto first = slow.get();
  ASSERT_TRUE(first.ok()) << first.status();

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.shed_admission, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  // The worker resolves the promise and then releases the limiter slot,
  // so the release can trail slow.get() by a beat — poll for it.
  for (int i = 0; i < 200 && server.stats().limiter_in_flight != 0; ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(server.stats().limiter_in_flight, 0u);  // slot released
}

}  // namespace
}  // namespace viewrewrite
