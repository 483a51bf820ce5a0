#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"

namespace viewrewrite {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

/// Failure semantics of the QueryServer's answer path (one attempt, a
/// typed error shared by the whole flight, never cached, never replaced
/// by a previous epoch's answer) and the store-load retries and circuit
/// breaker behind Reload, driven deterministically through injected
/// faults.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = serve_testing::MakeServeContext(42, "resilience");
    ASSERT_NE(ctx_.store, nullptr);
  }
  void TearDown() override { FaultInjection::Instance().DisableAll(); }

  /// Fast store-load retries so Reload tests spend microseconds, not
  /// milliseconds.
  static ServeOptions FastRetryOptions() {
    ServeOptions options;
    options.num_threads = 1;
    options.retry.initial_backoff = microseconds(10);
    options.retry.max_backoff = microseconds(50);
    options.retry.jitter = 0;
    return options;
  }

  serve_testing::ServeContext ctx_;
};

TEST_F(ResilienceTest, SemanticFailuresNeverRetry) {
  ServeOptions options = FastRetryOptions();
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  // No stored view covers a customer-only aggregate: NotFound, exactly
  // one attempt — retrying a semantic failure cannot change the outcome.
  auto got =
      server.Submit("SELECT COUNT(*) FROM customer c WHERE c.c_nation = 2")
          .get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server.stats().retries, 0u);
}

TEST_F(ResilienceTest, AnswerFaultFailsTheWholeFlightTypedAndIsNeverStale) {
  ServeOptions options;
  options.num_threads = 4;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);
  const std::string& sql = ctx_.workload[0];

  // Warm the cache at epoch 0, then reload the same bundle (epoch 1): the
  // warm entries are from a previous epoch, never fresh for epoch 1.
  auto warm = server.Submit(sql).get();
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(server.Reload(ctx_.bundle_path).ok());
  ASSERT_EQ(server.epoch(), 1u);
  const uint64_t warm_entries = server.stats().cache_entries;

  constexpr size_t kJoiners = 3;
  constexpr size_t kBatch = 3;  // one batch task plus two followers
  {
    // Park the leader at rewrite, after its raw flight key exists, so the
    // duplicates below join its flight; then fail its answer once.
    ScopedFault hold =
        ScopedFault::DelayOnNth(faults::kRewrite, 1, milliseconds(600));
    ScopedFault fault = ScopedFault::OnNth(faults::kServeAnswer, 1);
    auto leader = server.Submit(sql);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
    while (server.stats().flights < 2 &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(microseconds(200));
    }
    ASSERT_EQ(server.stats().flights, 2u);

    std::vector<std::future<Result<ServedAnswer>>> others;
    for (size_t i = 0; i < kJoiners; ++i) others.push_back(server.Submit(sql));
    for (auto& f : server.SubmitBatch(std::vector<std::string>(kBatch, sql))) {
      others.push_back(std::move(f));
    }

    Result<ServedAnswer> led = leader.get();
    ASSERT_FALSE(led.ok());
    EXPECT_EQ(led.status().code(), StatusCode::kInternal) << led.status();
    for (auto& f : others) {
      Result<ServedAnswer> got = f.get();
      ASSERT_FALSE(got.ok()) << "served " << (got->stale ? "stale " : "")
                             << got->value;
      EXPECT_EQ(got.status().code(), StatusCode::kInternal) << got.status();
    }
    // One answer attempt for the whole flight: nothing was retried.
    EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kServeAnswer), 1u);
    // Templates are per epoch: after the reload the leader compiled the
    // shape afresh, through the rewrite it was parked at.
    EXPECT_EQ(server.stats().template_hits, 0u);
  }

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, 2u);
  EXPECT_EQ(stats.coalesced_waiters, kJoiners + kBatch);
  EXPECT_EQ(stats.failed, 1 + kJoiners + kBatch);
  EXPECT_EQ(stats.completed, 1u);  // the warm-up only
  EXPECT_EQ(stats.cache_entries, warm_entries);  // the failure was not cached

  // The next request computes the answer afresh and gets the baseline.
  auto again = server.Submit(sql).get();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->stale);
  EXPECT_FALSE(again->coalesced);
  EXPECT_EQ(again->attempts, 1u);
  EXPECT_EQ(again->epoch, 1u);
  EXPECT_EQ(again->value, ctx_.Expected(0));
  EXPECT_EQ(server.stats().flights, 3u);
}

TEST_F(ResilienceTest, FailedReloadKeepsOldBundleServing) {
  ServeOptions options = FastRetryOptions();
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  {
    ScopedFault fault = ScopedFault::EveryN(faults::kServeReload, 1);
    Status reload = server.Reload(ctx_.bundle_path);
    ASSERT_FALSE(reload.ok());
  }
  EXPECT_EQ(server.epoch(), 0u);  // swap never happened

  auto got = server.Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, ctx_.Expected(0));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.reload_failures, 1u);
  EXPECT_EQ(stats.reloads, 0u);
}

TEST_F(ResilienceTest, RetryRecoversFromTransientFault) {
  ServeOptions options = FastRetryOptions();
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  {
    // The first bundle read fails transiently; the retry reads it.
    ScopedFault fault = ScopedFault::OnNth(faults::kServeLoad, 1);
    ASSERT_TRUE(server.Reload(ctx_.bundle_path).ok());
    EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kServeLoad), 2u);
  }
  EXPECT_EQ(server.epoch(), 1u);

  auto got = server.Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, ctx_.Expected(0));
  EXPECT_EQ(got->epoch, 1u);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.reload_failures, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
}

TEST_F(ResilienceTest, ExhaustedRetriesSurfaceTheTransientError) {
  ServeOptions options = FastRetryOptions();
  options.retry.max_attempts = 3;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  {
    ScopedFault fault = ScopedFault::EveryN(faults::kServeLoad, 1);
    Status reload = server.Reload(ctx_.bundle_path);
    ASSERT_FALSE(reload.ok());
    EXPECT_EQ(reload.code(), StatusCode::kInternal) << reload;  // the injection
    EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kServeLoad), 3u);
  }
  EXPECT_EQ(server.epoch(), 0u);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.reload_failures, 1u);
  EXPECT_EQ(stats.reloads, 0u);
}

TEST_F(ResilienceTest, BreakerTripsAfterThresholdThenFailsFast) {
  ServeOptions options = FastRetryOptions();
  options.retry.max_attempts = 1;  // isolate the breaker from retries
  options.store_breaker.failure_threshold = 3;
  options.store_breaker.open_duration = std::chrono::seconds(30);
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  ScopedFault fault = ScopedFault::EveryN(faults::kServeLoad, 1);
  for (int i = 0; i < 3; ++i) {
    Status reload = server.Reload(ctx_.bundle_path);
    ASSERT_FALSE(reload.ok());
    EXPECT_EQ(reload.code(), StatusCode::kInternal) << reload;
  }
  // Breaker is open: the next reloads are rejected without reading the
  // bundle — the fault point's hit count stops moving.
  const uint64_t hits_at_trip =
      FaultInjection::Instance().HitCount(faults::kServeLoad);
  EXPECT_EQ(hits_at_trip, 3u);
  for (int i = 0; i < 2; ++i) {
    Status reload = server.Reload(ctx_.bundle_path);
    ASSERT_FALSE(reload.ok());
    EXPECT_EQ(reload.code(), StatusCode::kUnavailable) << reload;
  }
  EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kServeLoad),
            hits_at_trip);
  EXPECT_EQ(server.epoch(), 0u);

  // The open store breaker never touches the answer path.
  auto got = server.Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, ctx_.Expected(0));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_rejected, 2u);
  EXPECT_EQ(stats.reload_failures, 5u);
}

TEST_F(ResilienceTest, BreakerHalfOpensAndRecovers) {
  ServeOptions options = FastRetryOptions();
  options.retry.max_attempts = 1;
  options.store_breaker.failure_threshold = 1;
  options.store_breaker.open_duration = std::chrono::nanoseconds(0);
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  {
    ScopedFault fault = ScopedFault::OnNth(faults::kServeLoad, 1);
    ASSERT_FALSE(server.Reload(ctx_.bundle_path).ok());
  }
  // Cooldown of zero: the next reload is admitted as the half-open probe;
  // with the fault disarmed it succeeds and closes the breaker.
  ASSERT_TRUE(server.Reload(ctx_.bundle_path).ok());
  EXPECT_EQ(server.epoch(), 1u);
  ASSERT_TRUE(server.Reload(ctx_.bundle_path).ok());
  EXPECT_EQ(server.epoch(), 2u);

  auto got = server.Submit(ctx_.workload[1]).get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, ctx_.Expected(1));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_rejected, 0u);
  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_EQ(stats.reload_failures, 1u);
}

TEST_F(ResilienceTest, StatsStreamOutputMentionsResilienceCounters) {
  ServeOptions options = FastRetryOptions();
  QueryServer server(ctx_.store, ctx_.db->schema(), options);
  ASSERT_TRUE(server.Submit(ctx_.workload[0]).get().ok());
  std::ostringstream os;
  os << server.stats();
  const std::string text = os.str();
  EXPECT_NE(text.find("retries="), std::string::npos) << text;
  EXPECT_NE(text.find("breaker_trips="), std::string::npos) << text;
  EXPECT_NE(text.find("epoch="), std::string::npos) << text;
}

}  // namespace
}  // namespace viewrewrite
