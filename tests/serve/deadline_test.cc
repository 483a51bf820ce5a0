#include <gtest/gtest.h>

#include <chrono>

#include "common/fault_injection.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"

namespace viewrewrite {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

/// Deadline semantics: expiry yields a typed DeadlineExceeded, never
/// poisons the worker, and never pollutes the cache.
class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = serve_testing::MakeServeContext(42, "deadline");
    ASSERT_NE(ctx_.store, nullptr);
  }
  void TearDown() override { FaultInjection::Instance().DisableAll(); }

  serve_testing::ServeContext ctx_;
};

TEST_F(DeadlineTest, ExpiredWhileQueuedResolvesTypedAndWorkerSurvives) {
  ServeOptions options;
  options.num_threads = 1;  // the same worker must answer the follow-up
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  // A negative timeout is expired on arrival: deterministic expiry with
  // no sleeping and no race against the worker.
  auto expired =
      server.Submit(ctx_.workload[0], {}, nanoseconds(-1)).get();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // The worker thread moved on; the identical query now succeeds with
  // the exact published value — the earlier failure was not cached.
  auto later = server.Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(later.ok()) << later.status();
  EXPECT_FALSE(later->stale);
  EXPECT_EQ(later->value, ctx_.Expected(0));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(DeadlineTest, ExpiredDeadlineRejectsSynchronouslyBeforeAdmission) {
  ServeOptions options;
  options.num_threads = 1;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  // Regression: an already-expired Submit used to occupy a queue slot
  // and a worker dequeue before resolving. It must now resolve
  // synchronously — the future is ready the moment Submit returns, and
  // nothing was ever submitted, queued or flown.
  auto future = server.Submit(ctx_.workload[0], {}, nanoseconds(-1));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto got = future.get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected_expired, 1u);
  EXPECT_EQ(stats.rejected(), 1u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.expired_in_queue, 0u);
  EXPECT_EQ(stats.flights, 0u);
  // Still a failed request past its deadline, observably.
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(DeadlineTest, SlowParseExpiresAtTheNextStageBoundary) {
  ServeOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  // Parse takes far longer than the request deadline: the stage-boundary
  // check after parse finds the deadline expired, so the query never
  // reaches rewrite or the answer stage.
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  {
    ScopedFault slow =
        ScopedFault::DelayOnNth(faults::kParse, 1, milliseconds(50));
    auto got = server.Submit(ctx_.workload[1], {}, milliseconds(5)).get();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
        << got.status();
    // A first-seen shape: a template hit would have skipped the parse.
    EXPECT_EQ(server.stats().template_hits, 0u);
  }

  // Fault disarmed: the same worker serves the same query correctly.
  auto later = server.Answer(ctx_.workload[1]);
  ASSERT_TRUE(later.ok()) << later.status();
  EXPECT_EQ(later->value, ctx_.Expected(1));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST_F(DeadlineTest, ServerDefaultTimeoutAppliesWhenRequestHasNone) {
  ServeOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  options.default_timeout = milliseconds(2);
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  ScopedFault slow =
      ScopedFault::DelayOnNth(faults::kRewrite, 1, milliseconds(20));
  auto got = server.Submit(ctx_.workload[2]).get();  // no explicit timeout
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  // A first-seen shape: a template hit would have skipped the rewrite.
  EXPECT_EQ(server.stats().template_hits, 0u);
}

TEST_F(DeadlineTest, GenerousDeadlineDoesNotDisturbAnswers) {
  ServeOptions options;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);
  for (size_t i = 0; i < ctx_.workload.size(); ++i) {
    auto got =
        server.Submit(ctx_.workload[i], {}, std::chrono::seconds(30)).get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, ctx_.Expected(i)) << ctx_.workload[i];
  }
  EXPECT_EQ(server.stats().deadline_exceeded, 0u);
}

}  // namespace
}  // namespace viewrewrite
