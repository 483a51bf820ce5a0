#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "serve/overload.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"

namespace viewrewrite {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

TEST(PriorityTaskQueueTest, PopsStrictPriorityFifoWithinClass) {
  PriorityTaskQueue<int> queue;
  queue.Push(Priority::kBackground, 30);
  queue.Push(Priority::kBatch, 20);
  queue.Push(Priority::kInteractive, 10);
  queue.Push(Priority::kInteractive, 11);
  queue.Push(Priority::kBatch, 21);
  queue.Push(Priority::kBackground, 31);
  ASSERT_EQ(queue.size(), 6u);

  // Every interactive item drains before any batch item regardless of
  // arrival order, and within a class order is FIFO.
  std::vector<int> order;
  std::vector<Priority> classes;
  while (!queue.empty()) {
    Priority p;
    order.push_back(queue.Pop(&p));
    classes.push_back(p);
  }
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 30, 31}));
  EXPECT_EQ(classes,
            (std::vector<Priority>{
                Priority::kInteractive, Priority::kInteractive,
                Priority::kBatch, Priority::kBatch, Priority::kBackground,
                Priority::kBackground}));
}

TEST(PriorityTaskQueueTest, LaneSizeTracksPerClassOccupancy) {
  PriorityTaskQueue<int> queue;
  queue.Push(Priority::kBatch, 1);
  queue.Push(Priority::kBatch, 2);
  queue.Push(Priority::kBackground, 3);
  EXPECT_EQ(queue.lane_size(Priority::kInteractive), 0u);
  EXPECT_EQ(queue.lane_size(Priority::kBatch), 2u);
  EXPECT_EQ(queue.lane_size(Priority::kBackground), 1u);
  queue.Pop();
  EXPECT_EQ(queue.lane_size(Priority::kBatch), 1u);
}

TEST(PriorityTaskQueueTest, DisplacementEvictsYoungestOfLowestClass) {
  PriorityTaskQueue<int> queue;
  queue.Push(Priority::kBatch, 20);
  queue.Push(Priority::kBackground, 30);
  queue.Push(Priority::kBackground, 31);

  // An interactive arrival sheds the lowest class first, and within it
  // the youngest (least-waited) item.
  std::optional<int> victim = queue.DisplaceLowerThan(Priority::kInteractive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 31);
  victim = queue.DisplaceLowerThan(Priority::kInteractive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 30);
  // Background drained; batch is next in line.
  victim = queue.DisplaceLowerThan(Priority::kInteractive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 20);
  // Nothing left that outranks: no displacement.
  EXPECT_FALSE(queue.DisplaceLowerThan(Priority::kInteractive).has_value());
  EXPECT_TRUE(queue.empty());
}

TEST(PriorityTaskQueueTest, ArrivalNeverDisplacesItsOwnClassOrBetter) {
  PriorityTaskQueue<int> queue;
  queue.Push(Priority::kInteractive, 10);
  queue.Push(Priority::kBatch, 20);
  // A batch arrival cannot displace batch or interactive.
  EXPECT_FALSE(queue.DisplaceLowerThan(Priority::kBatch).has_value());
  // A background arrival outranks nothing at all.
  queue.Push(Priority::kBackground, 30);
  EXPECT_FALSE(queue.DisplaceLowerThan(Priority::kBackground).has_value());
  EXPECT_EQ(queue.size(), 3u);
}

TEST(PriorityTaskQueueTest, BatchDrainsUnderBoundedInteractiveLoad) {
  // Starvation model: each round, up to 2 interactive requests arrive
  // and the worker pops 3 items. Strict priority serves interactive
  // first, but because the pop rate exceeds the interactive arrival
  // rate, the batch backlog drains every round — bounded interactive
  // load can delay batch, never starve it.
  PriorityTaskQueue<int> queue;
  const int kBatchBacklog = 50;
  for (int i = 0; i < kBatchBacklog; ++i) queue.Push(Priority::kBatch, i);

  int batch_served = 0;
  int next_expected_batch = 0;
  for (int round = 0; round < 200 && batch_served < kBatchBacklog; ++round) {
    const int interactive_arrivals = (round % 3 == 0) ? 2 : 1;  // bounded
    for (int i = 0; i < interactive_arrivals; ++i) {
      queue.Push(Priority::kInteractive, 1000 + round * 10 + i);
    }
    for (int pops = 0; pops < 3 && !queue.empty(); ++pops) {
      Priority p;
      const int item = queue.Pop(&p);
      if (p == Priority::kBatch) {
        // Batch also keeps FIFO order while being interleaved.
        EXPECT_EQ(item, next_expected_batch);
        ++next_expected_batch;
        ++batch_served;
      }
    }
  }
  EXPECT_EQ(batch_served, kBatchBacklog) << "batch starved by interactive";
}

// ---- Displacement through the QueryServer. ---------------------------------

class PriorityServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = serve_testing::MakeServeContext(42, "priority");
    ASSERT_NE(ctx_.store, nullptr);
  }
  void TearDown() override { FaultInjection::Instance().DisableAll(); }

  serve_testing::ServeContext ctx_;
};

TEST_F(PriorityServeTest, InteractiveDisplacesQueuedBackgroundWhenFull) {
  ServeOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.enable_cache = false;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  std::future<Result<ServedAnswer>> slow;
  std::future<Result<ServedAnswer>> background;
  {
    // Pin the single worker: a delay fault holds its answer stage for
    // 200ms while the queue fills behind it.
    ScopedFault hold =
        ScopedFault::DelayOnNth(faults::kServeAnswer, 1, milliseconds(200));
    slow = server.Submit(ctx_.workload[0]);
    // Let the worker dequeue it and enter the delay, freeing the single
    // queue slot.
    std::this_thread::sleep_for(milliseconds(30));

    background = server.Submit(ctx_.workload[1], {}, nanoseconds(0),
                               Priority::kBackground);
    // The slot is occupied by background work; the interactive arrival
    // displaces it rather than being refused.
    auto interactive = server.Submit(ctx_.workload[2], {}, nanoseconds(0),
                                     Priority::kInteractive);

    // The victim resolves immediately with the typed overload error —
    // displacement never leaves a future hanging.
    ASSERT_EQ(background.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    auto evicted = background.get();
    ASSERT_FALSE(evicted.ok());
    EXPECT_EQ(evicted.status().code(), StatusCode::kResourceExhausted);

    auto got = interactive.get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, ctx_.Expected(2));
  }
  auto first = slow.get();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->value, ctx_.Expected(0));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.shed_displaced, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  // The displaced request was admitted (submitted) before being shed;
  // the extended conservation law still balances.
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.flights + stats.coalesced_waiters +
                stats.cache_short_circuits + stats.expired_in_queue +
                stats.shed_hopeless + stats.shed_displaced,
            stats.submitted);
}

TEST_F(PriorityServeTest, NoVictimMeansQueueFullStaysUnavailable) {
  ServeOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.enable_cache = false;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  std::future<Result<ServedAnswer>> slow;
  {
    ScopedFault hold =
        ScopedFault::DelayOnNth(faults::kServeAnswer, 1, milliseconds(200));
    slow = server.Submit(ctx_.workload[0]);
    std::this_thread::sleep_for(milliseconds(30));

    // The slot holds an interactive request; a background arrival
    // outranks nothing, so it is refused with the queue-full error, and
    // the queued request is untouched.
    auto queued = server.Submit(ctx_.workload[1]);
    auto refused_future = server.Submit(ctx_.workload[2], {}, nanoseconds(0),
                                        Priority::kBackground);
    ASSERT_EQ(refused_future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    auto refused = refused_future.get();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

    auto got = queued.get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, ctx_.Expected(1));
  }
  ASSERT_TRUE(slow.get().ok());

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.shed_displaced, 0u);
}

TEST_F(PriorityServeTest, BatchSubmitCarriesPriorityClass) {
  ServeOptions options;
  options.num_threads = 2;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);
  auto futures = server.SubmitBatch(
      {ctx_.workload[0], ctx_.workload[1]}, {}, nanoseconds(0),
      Priority::kBatch);
  ASSERT_EQ(futures.size(), 2u);
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, ctx_.Expected(i));
  }
}

}  // namespace
}  // namespace viewrewrite
