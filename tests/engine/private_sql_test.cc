#include <gtest/gtest.h>

#include <limits>

#include "datagen/tpch.h"
#include "engine/private_sql_engine.h"
#include "engine/viewrewrite_engine.h"

namespace viewrewrite {
namespace {

/// Behavioural contract of the PrivateSQL baseline reimplementation: the
/// view definition absorbs subquery predicates (constants included), so
/// distinct subquery constants multiply views; main-query predicates over
/// base attributes are still shared.
class PrivateSqlTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig config;
    config.customers = 120;
    config.parts = 60;
    db_ = GenerateTpch(config).release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  size_t ViewsFor(const std::vector<std::string>& workload) {
    EngineOptions opts;
    PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    Status st = engine.Prepare(workload);
    EXPECT_TRUE(st.ok()) << st;
    return engine.NumViews();
  }

  static Database* db_;
};

Database* PrivateSqlTest::db_ = nullptr;

TEST_F(PrivateSqlTest, MainQueryConstantsShareOneView) {
  std::vector<std::string> workload;
  for (int k = 1; k <= 6; ++k) {
    workload.push_back(
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= " +
        std::to_string(4096 * k));
  }
  EXPECT_EQ(ViewsFor(workload), 1u);
}

TEST_F(PrivateSqlTest, SubqueryConstantsMultiplyViews) {
  std::vector<std::string> workload;
  for (int k = 1; k <= 6; ++k) {
    workload.push_back(
        "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM "
        "orders o WHERE o.o_custkey = c.c_custkey AND o.o_custkey >= " +
        std::to_string(32 * k) + ")");
  }
  // One main view + one per distinct subquery constant.
  EXPECT_GE(ViewsFor(workload), 6u);
}

TEST_F(PrivateSqlTest, DerivedTableConstantsMultiplyViews) {
  std::vector<std::string> workload;
  for (int k = 1; k <= 5; ++k) {
    workload.push_back(
        "SELECT COUNT(*) FROM customer c, (SELECT o_custkey, COUNT(*) AS "
        "cnt FROM orders GROUP BY o_custkey HAVING COUNT(*) >= " +
        std::to_string(k) +
        ") dt WHERE c.c_custkey = dt.o_custkey AND c.c_mktsegment = 1");
  }
  EXPECT_GE(ViewsFor(workload), 5u);
  // ViewRewrite collapses the same workload to one view.
  EngineOptions opts;
  ViewRewriteEngine vr(*db_, PrivacyPolicy{"orders"}, opts);
  ASSERT_TRUE(vr.Prepare(workload).ok());
  EXPECT_EQ(vr.NumViews(), 1u);
}

TEST_F(PrivateSqlTest, NonCorrelatedSubqueryLinksBakeConstants) {
  std::vector<std::string> workload;
  for (int y = 1992; y <= 1996; ++y) {
    workload.push_back(
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > (SELECT "
        "AVG(o2.o_totalprice) FROM orders o2 WHERE o2.o_orderyear = " +
        std::to_string(y) + ")");
  }
  // One shared main view plus one chain-link view per distinct year.
  EXPECT_EQ(ViewsFor(workload), 6u);
}

TEST_F(PrivateSqlTest, AnswersAreUsable) {
  std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 16384",
      "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM orders "
      "o WHERE o.o_custkey = c.c_custkey AND o.o_custkey >= 64)",
  };
  EngineOptions opts;
  opts.epsilon = 64.0;
  PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
  ASSERT_TRUE(engine.Prepare(workload).ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto noisy = engine.NoisyAnswer(i);
    auto truth = engine.TrueAnswer(i);
    ASSERT_TRUE(noisy.ok() && truth.ok());
    // Large budget: answers land near the truth.
    EXPECT_NEAR(*noisy, *truth, std::max(10.0, 0.2 * *truth))
        << workload[i];
  }
}

TEST_F(PrivateSqlTest, BakedViewsAnswerSubqueryPredicatesExactly) {
  // The baked EXISTS predicate is evaluated at materialization, so with a
  // huge budget the baseline answer equals the executor's.
  std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM orders "
      "o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice >= 32768)",
  };
  EngineOptions opts;
  opts.epsilon = 1e9;
  PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
  ASSERT_TRUE(engine.Prepare(workload).ok());
  auto noisy = engine.NoisyAnswer(0);
  auto truth = engine.TrueAnswer(0);
  ASSERT_TRUE(noisy.ok() && truth.ok());
  EXPECT_NEAR(*noisy, *truth, 1e-3);
}

TEST_F(PrivateSqlTest, DeterministicAcrossRuns) {
  std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 16384",
  };
  EngineOptions opts;
  opts.seed = 99;
  double first = 0;
  for (int run = 0; run < 2; ++run) {
    PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    ASSERT_TRUE(engine.Prepare(workload).ok());
    auto noisy = engine.NoisyAnswer(0);
    ASSERT_TRUE(noisy.ok());
    if (run == 0) {
      first = *noisy;
    } else {
      EXPECT_EQ(*noisy, first);
    }
  }
}

TEST_F(PrivateSqlTest, PrepareParsesUnderTheEngineLimits) {
  // The baseline governs untrusted workload text with the same
  // EngineOptions::limits as ViewRewrite: an oversized query is
  // quarantined with ResourceExhausted in both engines.
  const std::string sql =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 4096";
  EngineOptions opts;
  opts.limits.max_sql_bytes = 16;
  ASSERT_GT(sql.size(), opts.limits.max_sql_bytes);

  PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
  EXPECT_FALSE(engine.Prepare({sql}).ok());
  ASSERT_EQ(engine.report().query_status.size(), 1u);
  EXPECT_EQ(engine.report().query_status[0].code(),
            StatusCode::kResourceExhausted)
      << engine.report().query_status[0];

  ViewRewriteEngine vr(*db_, PrivacyPolicy{"orders"}, opts);
  EXPECT_FALSE(vr.Prepare({sql}).ok());
  ASSERT_EQ(vr.report().query_status.size(), 1u);
  EXPECT_EQ(vr.report().query_status[0].code(),
            StatusCode::kResourceExhausted);
}

TEST_F(PrivateSqlTest, NonFiniteEpsilonReportsAPoisonedBudget) {
  // A NaN budget poisons the accountant: nothing is spent, and the stats
  // say so instead of reporting an untouched zero budget.
  const std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 4096"};
  EngineOptions opts;
  opts.epsilon = std::numeric_limits<double>::quiet_NaN();

  PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
  (void)engine.Prepare(workload);
  EXPECT_TRUE(engine.stats().budget_poisoned);
  EXPECT_EQ(engine.stats().budget_spent_epsilon, 0.0);

  ViewRewriteEngine vr(*db_, PrivacyPolicy{"orders"}, opts);
  (void)vr.Prepare(workload);
  EXPECT_TRUE(vr.stats().budget_poisoned);
  EXPECT_EQ(engine.stats().budget_total_epsilon,
            vr.stats().budget_total_epsilon);
}

}  // namespace
}  // namespace viewrewrite
