#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "aggregate/grouped_result.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"

namespace viewrewrite {
namespace {

using std::chrono::milliseconds;

/// Single-flight coalescing: concurrent identical queries share one
/// computation, every waiter sees the same value or the same typed error,
/// flights are epoch-keyed across hot reloads, and a fresh cache hit
/// never consults the flight table.
///
/// The tests open a deterministic coalescing window with fault injection:
/// a delay fault parks the leader at a pipeline stage for long enough that
/// duplicates submitted meanwhile must join its flight. The window is
/// hundreds of milliseconds against joins that take microseconds, so the
/// joins land inside it on any sane scheduler (including under TSan); the
/// waits below are bounded, never unbounded.
class CoalescingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = serve_testing::MakeServeContext(42, "coalescing");
    ASSERT_NE(ctx_.store, nullptr);
  }
  void TearDown() override { FaultInjection::Instance().DisableAll(); }

  static ServeOptions WindowOptions() {
    ServeOptions options;
    options.num_threads = 4;
    options.enable_cache = false;  // force every request onto the flight path
    return options;
  }

  /// Parks the first flight to reach the answer stage for ~`window`, after
  /// it has registered both its raw and its canonical flight key; the
  /// answer then succeeds.
  static ScopedFault HoldFirstAnswer(milliseconds window) {
    return ScopedFault::DelayOnNth(faults::kServeAnswer, 1, window);
  }

  /// Spins until `pred()` holds or `bound` elapses; returns whether it held.
  template <typename Pred>
  static bool SpinUntil(Pred pred, milliseconds bound = milliseconds(10000)) {
    const auto until = std::chrono::steady_clock::now() + bound;
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  serve_testing::ServeContext ctx_;
};

TEST_F(CoalescingTest, DuplicatesJoinOneFlightAndShareItsValue) {
  QueryServer server(ctx_.store, ctx_.db->schema(), WindowOptions());
  ScopedFault hold = HoldFirstAnswer(milliseconds(600));

  auto leader = server.Submit(ctx_.workload[0]);
  // The leader has registered its flight once stats show it; it now sits
  // at the answer stage for the rest of the window.
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 1; }));

  constexpr size_t kDuplicates = 6;
  std::vector<std::future<Result<ServedAnswer>>> waiters;
  for (size_t i = 0; i < kDuplicates; ++i) {
    waiters.push_back(server.Submit(ctx_.workload[0]));
  }
  ASSERT_TRUE(SpinUntil(
      [&] { return server.stats().coalesced_waiters >= kDuplicates; }))
      << "duplicates did not join the in-flight computation";

  Result<ServedAnswer> led = leader.get();
  ASSERT_TRUE(led.ok()) << led.status();
  EXPECT_FALSE(led->coalesced);
  EXPECT_EQ(led->attempts, 1u);
  for (auto& w : waiters) {
    Result<ServedAnswer> got = w.get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, led->value);
    EXPECT_TRUE(got->coalesced);
    EXPECT_EQ(got->attempts, 0u);  // waiters consumed no answer attempts
    EXPECT_FALSE(got->stale);
  }
  EXPECT_EQ(led->value, ctx_.Expected(0));

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, 1u);  // one computation for 7 requests
  EXPECT_EQ(stats.coalesced_waiters, kDuplicates);
  EXPECT_EQ(stats.max_flight_group, 1 + kDuplicates);
  EXPECT_EQ(stats.completed, 1 + kDuplicates);
  EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kServeAnswer), 1u);
}

TEST_F(CoalescingTest, WaitersReceiveTheLeadersTypedError) {
  QueryServer server(ctx_.store, ctx_.db->schema(), WindowOptions());
  // The leader is parked at rewrite (after its raw flight key exists),
  // then its single answer attempt fails: the flight's outcome is the
  // injected error, and every waiter must see that exact status code.
  ScopedFault hold =
      ScopedFault::DelayOnNth(faults::kRewrite, 1, milliseconds(600));
  ScopedFault fault = ScopedFault::EveryN(faults::kServeAnswer, 1);

  auto leader = server.Submit(ctx_.workload[1]);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 1; }));
  constexpr size_t kDuplicates = 4;
  std::vector<std::future<Result<ServedAnswer>>> waiters;
  for (size_t i = 0; i < kDuplicates; ++i) {
    waiters.push_back(server.Submit(ctx_.workload[1]));
  }
  ASSERT_TRUE(SpinUntil(
      [&] { return server.stats().coalesced_waiters >= kDuplicates; }));

  Result<ServedAnswer> led = leader.get();
  ASSERT_FALSE(led.ok());
  EXPECT_EQ(led.status().code(), StatusCode::kInternal) << led.status();
  for (auto& w : waiters) {
    Result<ServedAnswer> got = w.get();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), led.status().code()) << got.status();
  }
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, 1u);
  EXPECT_EQ(stats.failed, 1 + kDuplicates);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(CoalescingTest, CanonicalVariantsMergeIntoOneComputation) {
  // Wider window than the join tests: the second variant must get
  // through parse + rewrite before the leader's window closes, which can
  // exceed 600ms under sanitizer builds on a loaded machine.
  QueryServer server(ctx_.store, ctx_.db->schema(), WindowOptions());
  ScopedFault hold = HoldFirstAnswer(milliseconds(2000));

  // Two textual variants of workload[0]: different raw keys, identical
  // canonical rewritten form. The second leads its own flight, discovers
  // the canonical-equal one after rewriting, and merges into it.
  const std::string variant_a =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64";
  const std::string variant_b =
      "select COUNT(*) FROM orders o WHERE ((o.o_totalprice >= 64))";

  auto a = server.Submit(variant_a);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 1; }));
  auto b = server.Submit(variant_b);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().merged_flights >= 1; }))
      << "canonical-equal flight did not merge";

  Result<ServedAnswer> got_a = a.get();
  Result<ServedAnswer> got_b = b.get();
  ASSERT_TRUE(got_a.ok()) << got_a.status();
  ASSERT_TRUE(got_b.ok()) << got_b.status();
  EXPECT_EQ(got_a->value, got_b->value);
  EXPECT_TRUE(got_b->coalesced);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, 2u);  // both led, one merged before answering
  EXPECT_EQ(stats.merged_flights, 1u);
  EXPECT_GE(stats.max_flight_group, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(CoalescingTest, FlightsAreEpochKeyedAcrossReload) {
  QueryServer server(ctx_.store, ctx_.db->schema(), WindowOptions());
  ScopedFault hold = HoldFirstAnswer(milliseconds(600));

  auto before = server.Submit(ctx_.workload[2]);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 1; }));

  // Hot reload while the flight is parked: the epoch advances, so an
  // identical query admitted now must NOT join the old epoch's flight —
  // it starts a fresh computation against the new bundle.
  ASSERT_TRUE(server.Reload(ctx_.store).ok());
  auto after = server.Submit(ctx_.workload[2]);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 2; }))
      << "post-reload duplicate joined a pre-reload flight";

  Result<ServedAnswer> got_before = before.get();
  Result<ServedAnswer> got_after = after.get();
  ASSERT_TRUE(got_before.ok()) << got_before.status();
  ASSERT_TRUE(got_after.ok()) << got_after.status();
  // Same bundle bytes on both sides of the reload: the values agree, and
  // neither is stale — each was computed live against its own epoch.
  EXPECT_EQ(got_before->value, got_after->value);
  EXPECT_FALSE(got_before->stale);
  EXPECT_FALSE(got_after->stale);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, 2u);
  EXPECT_EQ(stats.coalesced_waiters, 0u);
  EXPECT_EQ(stats.epoch, 1u);
}

TEST_F(CoalescingTest, FreshCacheHitNeverTouchesTheFlightTable) {
  ServeOptions options;
  options.num_threads = 2;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  auto first = server.Answer(ctx_.workload[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  ServeStats after_first = server.stats();
  EXPECT_EQ(after_first.flights, 1u);
  // The completing flight wrote exactly one entry per key: the raw key
  // and the canonical key. No double-insert.
  EXPECT_EQ(after_first.cache_entries, 2u);

  auto second = server.Answer(ctx_.workload[0]);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->value, first->value);
  EXPECT_EQ(second->attempts, 0u);

  ServeStats stats = server.stats();
  // The repeat resolved through the cache channel: no new flight, no
  // coalescing, one short-circuit.
  EXPECT_EQ(stats.flights, 1u);
  EXPECT_EQ(stats.cache_short_circuits, 1u);
  EXPECT_EQ(stats.coalesced_waiters, 0u);
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST_F(CoalescingTest, CoalescedFlightPopulatesEachCacheKeyOnce) {
  ServeOptions options = WindowOptions();
  options.enable_cache = true;  // override: this test is about the cache
  QueryServer server(ctx_.store, ctx_.db->schema(), options);
  ScopedFault hold = HoldFirstAnswer(milliseconds(600));

  auto leader = server.Submit(ctx_.workload[3]);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 1; }));
  constexpr size_t kDuplicates = 5;
  std::vector<std::future<Result<ServedAnswer>>> waiters;
  for (size_t i = 0; i < kDuplicates; ++i) {
    waiters.push_back(server.Submit(ctx_.workload[3]));
  }
  ASSERT_TRUE(SpinUntil(
      [&] { return server.stats().coalesced_waiters >= kDuplicates; }));

  ASSERT_TRUE(leader.get().ok());
  for (auto& w : waiters) ASSERT_TRUE(w.get().ok());

  // Six requests resolved, but the flight's leader wrote the cache once
  // per key: raw + canonical = exactly two entries.
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, 1u);
  EXPECT_EQ(stats.cache_entries, 2u);
}

TEST_F(CoalescingTest, PropertyCoalescedAnswersEqualUncoalesced) {
  // Property: for the same {store, epoch}, a duplicate-heavy workload
  // answers identically — value for value, status code for status code —
  // with coalescing on and off. Coalescing may only change who computes,
  // never what is returned.
  const std::string unmatchable =
      "SELECT COUNT(*) FROM customer c WHERE c.c_nation = 3";
  std::vector<std::string> requests;
  constexpr size_t kRounds = 40;
  for (size_t r = 0; r < kRounds; ++r) {
    requests.push_back(ctx_.workload[r % ctx_.workload.size()]);
    if (r % 5 == 4) requests.push_back(unmatchable);
  }

  auto run = [&](bool coalesce) {
    ServeOptions options;
    options.num_threads = 4;
    options.enable_coalescing = coalesce;
    QueryServer server(ctx_.store, ctx_.db->schema(), options);
    std::vector<std::future<Result<ServedAnswer>>> futures;
    for (const std::string& sql : requests) {
      futures.push_back(server.Submit(sql));
    }
    std::vector<Result<ServedAnswer>> results;
    for (auto& f : futures) results.push_back(f.get());
    return results;
  };

  std::vector<Result<ServedAnswer>> off = run(false);
  std::vector<Result<ServedAnswer>> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].ok(), on[i].ok()) << requests[i];
    if (off[i].ok()) {
      EXPECT_EQ(off[i]->value, on[i]->value) << requests[i];
      EXPECT_EQ(off[i]->stale, on[i]->stale) << requests[i];
    } else {
      EXPECT_EQ(off[i].status().code(), on[i].status().code()) << requests[i];
    }
  }
}

TEST_F(CoalescingTest, DisablingCoalescingComputesEveryRequest) {
  ServeOptions options = WindowOptions();
  options.enable_coalescing = false;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  constexpr size_t kRequests = 8;
  std::vector<std::future<Result<ServedAnswer>>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(ctx_.workload[0]));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  // No cache and no coalescing: every request is its own flight.
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flights, kRequests);
  EXPECT_EQ(stats.coalesced_waiters, 0u);
  EXPECT_EQ(stats.max_flight_group, 1u);
}

// The context workload already gives its view the o_status attribute and
// the sum:o_totalprice measure, so this grouped AVG binds against the
// loaded bundle without having been registered verbatim.
constexpr char kGroupedAvg[] =
    "SELECT o_status, AVG(o_totalprice) FROM orders o GROUP BY o_status";

TEST_F(CoalescingTest, GroupedDuplicatesShareOneFlightAndOneRowSet) {
  QueryServer server(ctx_.store, ctx_.db->schema(), WindowOptions());
  ScopedFault hold = HoldFirstAnswer(milliseconds(600));

  auto leader = server.Submit(kGroupedAvg);
  ASSERT_TRUE(SpinUntil([&] { return server.stats().flights >= 1; }));

  constexpr size_t kDuplicates = 5;
  std::vector<std::future<Result<ServedAnswer>>> waiters;
  for (size_t i = 0; i < kDuplicates; ++i) {
    waiters.push_back(server.Submit(kGroupedAvg));
  }
  ASSERT_TRUE(SpinUntil(
      [&] { return server.stats().coalesced_waiters >= kDuplicates; }))
      << "grouped duplicates did not join the in-flight computation";

  Result<ServedAnswer> led = leader.get();
  ASSERT_TRUE(led.ok()) << led.status();
  ASSERT_NE(led->rows, nullptr);
  EXPECT_EQ(led->value, static_cast<double>(led->rows->rows.size()));
  for (auto& w : waiters) {
    Result<ServedAnswer> got = w.get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->coalesced);
    // Every waiter receives the *identical* immutable row set — the same
    // object the leader computed, not a copy and not a recomputation.
    EXPECT_EQ(got->rows.get(), led->rows.get());
  }

  // The row set was computed exactly once despite 1 + kDuplicates
  // submissions, and the flight accounting conserves: every submission is
  // a flight, a coalesced waiter, a cache short-circuit, or expired.
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.grouped_queries, 1u);
  EXPECT_EQ(stats.flights + stats.coalesced_waiters +
                stats.cache_short_circuits + stats.expired_in_queue,
            stats.submitted);
}

TEST_F(CoalescingTest, GroupedAnswersEqualWithCoalescingOnAndOff) {
  // The grouped analogue of the scalar property test: coalescing may
  // change who computes a row set, never its contents.
  auto run = [&](bool coalesce) {
    ServeOptions options;
    options.num_threads = 4;
    options.enable_coalescing = coalesce;
    QueryServer server(ctx_.store, ctx_.db->schema(), options);
    std::vector<std::future<Result<ServedAnswer>>> futures;
    constexpr size_t kRequests = 12;
    for (size_t i = 0; i < kRequests; ++i) {
      futures.push_back(server.Submit(kGroupedAvg));
    }
    std::vector<Result<ServedAnswer>> results;
    for (auto& f : futures) results.push_back(f.get());
    return results;
  };

  std::vector<Result<ServedAnswer>> off = run(false);
  std::vector<Result<ServedAnswer>> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    ASSERT_TRUE(off[i].ok() && on[i].ok());
    ASSERT_NE(off[i]->rows, nullptr);
    ASSERT_NE(on[i]->rows, nullptr);
    const aggregate::GroupedData& a = *off[i]->rows;
    const aggregate::GroupedData& b = *on[i]->rows;
    ASSERT_EQ(a.columns, b.columns);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t r = 0; r < a.rows.size(); ++r) {
      EXPECT_EQ(a.rows[r].suppressed, b.rows[r].suppressed);
      ASSERT_EQ(a.rows[r].values.size(), b.rows[r].values.size());
      for (size_t c = 0; c < a.rows[r].values.size(); ++c) {
        const Value& av = a.rows[r].values[c];
        const Value& bv = b.rows[r].values[c];
        ASSERT_EQ(av.is_null(), bv.is_null());
        if (av.is_null()) continue;
        if (av.is_numeric()) {
          EXPECT_DOUBLE_EQ(av.ToDouble(), bv.ToDouble());
        } else {
          EXPECT_EQ(av.AsString(), bv.AsString());
        }
      }
    }
  }
}

}  // namespace
}  // namespace viewrewrite
