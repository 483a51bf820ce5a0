#include <gtest/gtest.h>
#include <unistd.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/viewrewrite_engine.h"
#include "rewrite/rewriter.h"
#include "serve/query_server.h"
#include "sql/parser.h"
#include "serve/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

/// Publishes a small workload over the mini TPC-H test database and loads
/// the bundle back through disk, the way a serving process would.
class QueryServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = testing_support::MakeTestDatabase(13, 40).release();
    engine_ = new ViewRewriteEngine(*db_, PrivacyPolicy{"customer"},
                                    EngineOptions{});
    workload_ = new std::vector<std::string>{
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 128",
        "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'",
        "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'",
        "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
        "o.o_custkey AND c.c_nation = 1",
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 OR "
        "o.o_status = 'p'",
    };
    ASSERT_TRUE(engine_->Prepare(*workload_).ok());

    // Pid-unique path: ctest runs each case of this binary as its own
    // process, and concurrent Saves to one path are unsupported.
    const std::string path = ::testing::TempDir() + "server_bundle." +
                             std::to_string(::getpid()) + ".vrsy";
    auto snapshot = SynopsisStore::FromManager(engine_->views(), db_->schema());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(snapshot->Save(path).ok());
    auto loaded = SynopsisStore::Load(path, db_->schema());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    store_ = new std::shared_ptr<const SynopsisStore>(
        std::make_shared<SynopsisStore>(std::move(*loaded)));
  }

  static void TearDownTestSuite() {
    delete store_;
    delete engine_;
    delete workload_;
    delete db_;
    store_ = nullptr;
    engine_ = nullptr;
    workload_ = nullptr;
    db_ = nullptr;
  }

  static Database* db_;
  static ViewRewriteEngine* engine_;
  static std::vector<std::string>* workload_;
  static std::shared_ptr<const SynopsisStore>* store_;
};

Database* QueryServerTest::db_ = nullptr;
ViewRewriteEngine* QueryServerTest::engine_ = nullptr;
std::vector<std::string>* QueryServerTest::workload_ = nullptr;
std::shared_ptr<const SynopsisStore>* QueryServerTest::store_ = nullptr;

TEST_F(QueryServerTest, ConcurrentServingMatchesEngineAnswers) {
  // The expected values: what the engine answers in-process from the same
  // (pre-save) synopses. Serving from the reloaded bundle across 8
  // threads must reproduce them exactly, for every one of >= 1000
  // submissions.
  std::vector<double> expected;
  for (size_t i = 0; i < workload_->size(); ++i) {
    auto ans = engine_->NoisyAnswer(i);
    ASSERT_TRUE(ans.ok()) << ans.status();
    expected.push_back(*ans);
  }

  ServeOptions options;
  options.num_threads = 8;
  options.queue_capacity = 4096;
  QueryServer server(*store_, db_->schema(), options);

  constexpr size_t kSubmissions = 1200;
  std::vector<std::future<Result<ServedAnswer>>> futures;
  futures.reserve(kSubmissions);
  for (size_t i = 0; i < kSubmissions; ++i) {
    futures.push_back(server.Submit((*workload_)[i % workload_->size()]));
  }
  for (size_t i = 0; i < kSubmissions; ++i) {
    Result<ServedAnswer> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->stale);
    EXPECT_EQ(got->value, expected[i % expected.size()])
        << (*workload_)[i % workload_->size()];
  }
  server.Shutdown();

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kSubmissions);
  EXPECT_EQ(stats.completed, kSubmissions);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected(), 0u);
  // Each distinct query computes once (plus canonical-key misses); the
  // rest hit the cache.
  EXPECT_GT(stats.cache_hits, kSubmissions / 2);
}

TEST_F(QueryServerTest, CacheDisabledStillAnswersIdentically) {
  ServeOptions cached;
  cached.num_threads = 2;
  ServeOptions uncached;
  uncached.num_threads = 2;
  uncached.enable_cache = false;
  QueryServer with_cache(*store_, db_->schema(), cached);
  QueryServer without_cache(*store_, db_->schema(), uncached);
  for (const std::string& sql : *workload_) {
    auto a = with_cache.Answer(sql);
    auto b = without_cache.Answer(sql);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->value, b->value) << sql;
  }
  EXPECT_EQ(without_cache.stats().cache_hits, 0u);
  EXPECT_EQ(without_cache.stats().cache_misses, 0u);
}

TEST_F(QueryServerTest, CanonicalKeyCatchesTextualVariants) {
  QueryServer server(*store_, db_->schema(), ServeOptions{});
  auto a = server.Answer("SELECT COUNT(*) FROM orders o WHERE "
                         "o.o_totalprice >= 64");
  ASSERT_TRUE(a.ok()) << a.status();
  // Textually different (extra parentheses, lowercase keyword), but the
  // canonical rewritten form is identical: the raw key misses, the
  // canonical key hits.
  auto b = server.Answer("select COUNT(*) FROM orders o WHERE "
                         "((o.o_totalprice >= 64))");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->value, b->value);
  EXPECT_GE(server.stats().cache_hits, 1u);
}

/// The store's answer for `sql` through the literal stages, with no
/// server (and no cache) in between.
Result<double> DirectAnswer(const SynopsisStore& store, const Schema& schema,
                            const std::string& sql,
                            const ParamMap& params = {}) {
  VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelect(sql));
  Rewriter rewriter(schema);
  VR_ASSIGN_OR_RETURN(RewrittenQuery rq, rewriter.Rewrite(*stmt));
  VR_ASSIGN_OR_RETURN(BoundRewrittenQuery bound, store.Bind(rq, nullptr));
  return store.Answer(bound, params);
}

TEST_F(QueryServerTest, CloseDoubleConstantsKeepDistinctCacheKeys) {
  // Six significant digits print both constants as 72: the cache keys
  // must still tell them apart, or the second answer is the first one's.
  const std::string below =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 71.999999";
  const std::string above =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 72.000001";
  auto want_below = DirectAnswer(**store_, db_->schema(), below);
  auto want_above = DirectAnswer(**store_, db_->schema(), above);
  ASSERT_TRUE(want_below.ok()) << want_below.status();
  ASSERT_TRUE(want_above.ok()) << want_above.status();
  ASSERT_NE(*want_below, *want_above) << "fixture no longer separates them";

  QueryServer server(*store_, db_->schema(), ServeOptions{});
  auto got_below = server.Answer(below);
  auto got_above = server.Answer(above);
  ASSERT_TRUE(got_below.ok()) << got_below.status();
  ASSERT_TRUE(got_above.ok()) << got_above.status();
  EXPECT_EQ(got_below->value, *want_below);
  EXPECT_EQ(got_above->value, *want_above);
}

TEST_F(QueryServerTest, CloseDoubleParamsKeepDistinctCacheKeys) {
  const std::string sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= $t";
  const ParamMap below{{"t", Value::Double(71.999999)}};
  const ParamMap above{{"t", Value::Double(72.000001)}};
  auto want_below = DirectAnswer(**store_, db_->schema(), sql, below);
  auto want_above = DirectAnswer(**store_, db_->schema(), sql, above);
  ASSERT_TRUE(want_below.ok()) << want_below.status();
  ASSERT_TRUE(want_above.ok()) << want_above.status();
  ASSERT_NE(*want_below, *want_above) << "fixture no longer separates them";

  QueryServer server(*store_, db_->schema(), ServeOptions{});
  auto got_below = server.Answer(sql, below);
  auto got_above = server.Answer(sql, above);
  ASSERT_TRUE(got_below.ok()) << got_below.status();
  ASSERT_TRUE(got_above.ok()) << got_above.status();
  EXPECT_EQ(got_below->value, *want_below);
  EXPECT_EQ(got_above->value, *want_above);
}

TEST_F(QueryServerTest, UnmatchableQueryGetsTypedStatusAndNoCrash) {
  QueryServer server(*store_, db_->schema(), ServeOptions{});
  // Structurally sound, but no registered view covers a customer-only
  // aggregate: the serve layer has no budget to spend on a fresh view, so
  // this must be a typed refusal.
  auto unmatched =
      server.Submit("SELECT COUNT(*) FROM customer c WHERE c.c_nation = 2")
          .get();
  ASSERT_FALSE(unmatched.ok());
  EXPECT_EQ(unmatched.status().code(), StatusCode::kNotFound);

  auto unparseable = server.Submit("SELECT FROM WHERE").get();
  EXPECT_FALSE(unparseable.ok());

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.unmatched, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(QueryServerTest, FullQueueRejectsWithUnavailable) {
  ServeOptions options;
  options.num_threads = 1;
  options.queue_capacity = 0;  // every submission rejects deterministically
  QueryServer server(*store_, db_->schema(), options);
  auto result = server.Submit((*workload_)[0]).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected(), 1u);
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST_F(QueryServerTest, SubmitAfterShutdownIsUnavailable) {
  QueryServer server(*store_, db_->schema(), ServeOptions{});
  auto before = server.Submit((*workload_)[0]).get();
  EXPECT_TRUE(before.ok()) << before.status();
  server.Shutdown();
  auto after = server.Submit((*workload_)[0]).get();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace viewrewrite
