#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"

namespace viewrewrite {
namespace {

/// The Submit/Shutdown race, hammered hard enough for TSan to see it:
/// submitters racing concurrent Shutdown calls (plus the destructor's
/// implicit one). Every future must resolve — to an answer or a typed
/// Unavailable — and no request may be silently abandoned.
class ShutdownRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = serve_testing::MakeServeContext(42, "shutdown_race");
    ASSERT_NE(ctx_.store, nullptr);
  }
  serve_testing::ServeContext ctx_;
};

TEST_F(ShutdownRaceTest, EveryFutureResolvesWhenSubmittersRaceShutdown) {
  for (int round = 0; round < 5; ++round) {
    ServeOptions options;
    options.num_threads = 3;
    options.queue_capacity = 4096;
    QueryServer server(ctx_.store, ctx_.db->schema(), options);

    constexpr size_t kSubmitters = 4;
    constexpr size_t kPerThread = 200;
    std::vector<std::vector<std::future<Result<ServedAnswer>>>> futures(
        kSubmitters);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t i = 0; i < kPerThread; ++i) {
          futures[t].push_back(
              server.Submit(ctx_.workload[i % ctx_.workload.size()]));
        }
      });
    }
    // Two extra threads race Shutdown against the submitters and against
    // each other; the destructor adds a third call at scope exit.
    std::vector<std::thread> stoppers;
    for (int s = 0; s < 2; ++s) {
      stoppers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        server.Shutdown();
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    for (std::thread& t : stoppers) t.join();

    size_t answered = 0, rejected = 0;
    for (size_t t = 0; t < kSubmitters; ++t) {
      for (auto& f : futures[t]) {
        // wait_for instead of get-first: a hung future is a deadlock
        // diagnosis, not a test timeout.
        ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready)
            << "abandoned future in round " << round;
        Result<ServedAnswer> got = f.get();
        if (got.ok()) {
          ++answered;
        } else {
          EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
              << got.status();
          ++rejected;
        }
      }
    }
    EXPECT_EQ(answered + rejected, kSubmitters * kPerThread);

    ServeStats stats = server.stats();
    EXPECT_EQ(stats.completed, answered);
    EXPECT_EQ(stats.rejected_shutdown + stats.rejected_queue_full, rejected);
    EXPECT_EQ(stats.submitted, answered);  // accepted == answered: drained
  }
}

TEST_F(ShutdownRaceTest, CoalescedWaitersResolveAcrossShutdown) {
  // Regression for the Submit/Shutdown interaction with coalescing: a
  // shutdown racing a parked flight full of coalesced waiters must let
  // the flight's leader finish the drain and resolve every waiter — to
  // the answer or a typed Unavailable — and must never hang or abandon a
  // promise. The flight is parked deterministically: a delay fault holds
  // its answer stage for ~400ms while the duplicates pile on and Shutdown
  // lands mid-flight.
  for (int round = 0; round < 3; ++round) {
    ServeOptions options;
    options.num_threads = 3;
    options.enable_cache = false;
    QueryServer server(ctx_.store, ctx_.db->schema(), options);
    ScopedFault hold = ScopedFault::DelayOnNth(
        faults::kServeAnswer, 1, std::chrono::milliseconds(400));

    std::vector<std::future<Result<ServedAnswer>>> futures;
    futures.push_back(server.Submit(ctx_.workload[0]));
    {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (server.stats().flights < 1 &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
      ASSERT_GE(server.stats().flights, 1u);
    }
    for (int i = 0; i < 5; ++i) {
      futures.push_back(server.Submit(ctx_.workload[0]));
    }

    // Shutdown while the flight is (very likely) still in its delay
    // window, with waiters attached. It must return — the drain finishes
    // the leader, the leader resolves the waiters.
    server.Shutdown();

    size_t answered = 0, rejected = 0;
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "coalesced waiter abandoned across shutdown in round " << round;
      Result<ServedAnswer> got = f.get();
      if (got.ok()) {
        ++answered;
        EXPECT_EQ(got->value, ctx_.Expected(0));
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
            << got.status();
        ++rejected;
      }
    }
    EXPECT_EQ(answered + rejected, futures.size());
    // The leader was accepted before Shutdown, so it always completes;
    // duplicates either joined its flight (answered with it) or arrived
    // after stopping_ flipped (typed Unavailable).
    EXPECT_GE(answered, 1u);
    FaultInjection::Instance().DisableAll();
  }
}

TEST_F(ShutdownRaceTest, ShutdownIsIdempotent) {
  QueryServer server(ctx_.store, ctx_.db->schema(), ServeOptions{});
  ASSERT_TRUE(server.Submit(ctx_.workload[0]).get().ok());
  server.Shutdown();
  server.Shutdown();  // second explicit call is a no-op
  auto after = server.Submit(ctx_.workload[0]).get();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

}  // namespace
}  // namespace viewrewrite
