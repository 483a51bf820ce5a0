#include "view/synopsis.h"

#include <gtest/gtest.h>

#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "view/view_manager.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

constexpr double kHugeEpsilon = 1e9;  // noise ~ 0: tests exactness

class SynopsisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(3, 40);
    schema_ = &db_->schema();
  }

  /// Registers `sql` (already rewritten / subquery-free) as a view,
  /// publishes with a huge budget, and answers it from cells.
  double AnswerViaSynopsis(const std::string& sql, double epsilon,
                           uint64_t seed = 9) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    Rewriter rewriter(*schema_);
    auto rq = rewriter.Rewrite(**stmt);
    EXPECT_TRUE(rq.ok()) << rq.status();
    ViewManager manager(*schema_, PrivacyPolicy{"customer"});
    auto bound = manager.RegisterRewritten(*rq, nullptr);
    EXPECT_TRUE(bound.ok()) << bound.status();
    Random rng(seed);
    Status pub = manager.Publish(*db_, epsilon, &rng);
    EXPECT_TRUE(pub.ok()) << pub.ToString();
    auto ans = AnswerBound(manager.synopses(), *bound);
    EXPECT_TRUE(ans.ok()) << ans.status();
    return ans.ok() ? *ans : -1e18;
  }

  double Exact(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    Executor executor(*db_);
    auto r = executor.ExecuteScalar(**stmt);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : -1e18;
  }

  std::unique_ptr<Database> db_;
  const Schema* schema_ = nullptr;
};

TEST_F(SynopsisTest, CountWithAlignedPredicatesIsExactAtHugeEpsilon) {
  // Predicate boundaries align with the 16-bucket [0,63] quantity domain
  // and the categorical status domain, so cell answering is exact.
  const char* sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 AND "
      "o.o_status = 'f'";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-3);
}

TEST_F(SynopsisTest, JoinCountExact) {
  const char* sql =
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 2";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-3);
}

TEST_F(SynopsisTest, SumMeasureExact) {
  const char* sql =
      "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-2);
}

TEST_F(SynopsisTest, UnfilteredAggregate) {
  const char* sql = "SELECT COUNT(*) FROM lineitem l";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-3);
}

TEST_F(SynopsisTest, CorrelatedQueryAnsweredFromCells) {
  const char* sql =
      "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM orders "
      "o WHERE o.o_custkey = c.c_custkey)";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-3);
}

TEST_F(SynopsisTest, NotExistsUsesNullPaddingCell) {
  const char* sql =
      "SELECT COUNT(*) FROM customer c WHERE NOT EXISTS (SELECT * FROM "
      "orders o WHERE o.o_custkey = c.c_custkey)";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-3);
}

TEST_F(SynopsisTest, OrSplitCombinationExact) {
  const char* sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f' OR "
      "o.o_totalprice >= 128";
  EXPECT_NEAR(AnswerViaSynopsis(sql, kHugeEpsilon), Exact(sql), 1e-3);
}

TEST_F(SynopsisTest, ChainedQueryAnswered) {
  // Non-correlated subquery: link answered from its own view first.
  const char* sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > (SELECT "
      "AVG(o2.o_totalprice) FROM orders o2 WHERE o2.o_status = 'f')";
  // The AVG estimate is cell-midpoint based, so allow the count to be off
  // by the rows whose price falls between the true and estimated pivots.
  double truth = Exact(sql);
  double got = AnswerViaSynopsis(sql, kHugeEpsilon);
  EXPECT_NEAR(got, truth, std::max(8.0, 0.25 * truth));
}

TEST_F(SynopsisTest, SelfJoinExtremumReadsTheAggregatedAlias) {
  // Both aliases of the self-join carry o_totalprice as a view dimension;
  // MAX must read o2's, not the first dimension with that column name.
  const char* sql =
      "SELECT MAX(o2.o_totalprice) FROM orders o JOIN orders o2 ON "
      "o.o_custkey = o2.o_custkey WHERE o.o_totalprice < 64";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  Rewriter rewriter(*schema_);
  auto rq = rewriter.Rewrite(**stmt);
  ASSERT_TRUE(rq.ok()) << rq.status();
  ViewManager manager(*schema_, PrivacyPolicy{"customer"});
  auto bound = manager.RegisterRewritten(*rq, nullptr);
  ASSERT_TRUE(bound.ok()) << bound.status();
  Random rng(9);
  ASSERT_TRUE(manager.Publish(*db_, kHugeEpsilon, &rng).ok());
  auto got = AnswerBound(manager.ground_truth(), *bound);
  ASSERT_TRUE(got.ok()) << got.status();
  // The answer is the midpoint of the 16-wide price bucket holding the
  // true maximum, which lies far above the o-side filter.
  const double truth = Exact(sql);
  ASSERT_GE(truth, 64);
  EXPECT_NEAR(*got, truth, 8.0);
}

TEST_F(SynopsisTest, NoiseDecreasesWithEpsilon) {
  const char* sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64";
  double truth = Exact(sql);
  double err_low_eps = 0;
  double err_high_eps = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    err_low_eps += std::fabs(AnswerViaSynopsis(sql, 0.05, seed) - truth);
    err_high_eps += std::fabs(AnswerViaSynopsis(sql, 100.0, seed) - truth);
  }
  EXPECT_GT(err_low_eps, err_high_eps);
}

TEST_F(SynopsisTest, DeterministicGivenSeed) {
  const char* sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64";
  EXPECT_EQ(AnswerViaSynopsis(sql, 1.0, 42), AnswerViaSynopsis(sql, 1.0, 42));
}

TEST_F(SynopsisTest, PrivacyKeyDirectRelation) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM customer c");
  ASSERT_TRUE(stmt.ok());
  auto key = ResolvePrivacyKey(stmt->get(), *schema_,
                               PrivacyPolicy{"customer"});
  ASSERT_TRUE(key.ok()) << key.status();
  EXPECT_EQ(ToSql(**key), "c.c_custkey");
}

TEST_F(SynopsisTest, PrivacyKeyViaForeignKeyPath) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM lineitem l");
  ASSERT_TRUE(stmt.ok());
  SelectStmt* s = stmt->get();
  auto key = ResolvePrivacyKey(s, *schema_, PrivacyPolicy{"customer"});
  ASSERT_TRUE(key.ok()) << key.status();
  // The path lineitem -> orders -> customer was appended as joins.
  EXPECT_EQ(s->from.size(), 3u);
  ASSERT_NE(s->where, nullptr);
  std::string cond = ToSql(*s->where);
  EXPECT_NE(cond.find("l.l_orderkey"), std::string::npos);
  EXPECT_NE(cond.find("o_custkey"), std::string::npos);
  EXPECT_NE(ToSql(**key).find("c_custkey"), std::string::npos);
}

TEST_F(SynopsisTest, PrivacyKeyPathJoinPreservesRowCount) {
  // FK joins are N:1, so augmenting must not change the multiset of rows.
  auto stmt = ParseSelect("SELECT COUNT(*) FROM lineitem l");
  ASSERT_TRUE(stmt.ok());
  Executor executor(*db_);
  auto before = executor.ExecuteScalar(**stmt);
  ASSERT_TRUE(before.ok());
  SelectStmt* s = stmt->get();
  auto key = ResolvePrivacyKey(s, *schema_, PrivacyPolicy{"customer"});
  ASSERT_TRUE(key.ok());
  auto after = executor.ExecuteScalar(*s);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(SynopsisTest, TruncationStatsPopulated) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  ASSERT_TRUE(stmt.ok());
  Rewriter rewriter(*schema_);
  auto rq = rewriter.Rewrite(**stmt);
  ASSERT_TRUE(rq.ok());
  ViewManager manager(*schema_, PrivacyPolicy{"customer"});
  auto bound = manager.RegisterRewritten(*rq, nullptr);
  ASSERT_TRUE(bound.ok());
  Random rng(5);
  ASSERT_TRUE(manager.Publish(*db_, 8.0, &rng).ok());
  auto stats = manager.BuildStatsList();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GE(stats[0].tau, 1);
  EXPECT_GT(stats[0].materialized_rows, 0u);
  EXPECT_LE(stats[0].truncated_rows, stats[0].materialized_rows);
  EXPECT_GT(stats[0].cells, 0u);
}

}  // namespace
}  // namespace viewrewrite
