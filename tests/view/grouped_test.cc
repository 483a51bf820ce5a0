#include <gtest/gtest.h>

#include <map>

#include "exec/executor.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "view/view_manager.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

constexpr double kHugeEpsilon = 1e9;

/// Grouped answering: per-group noisy aggregates released straight from
/// the synopsis cells.
class GroupedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(6, 40);
    rewriter_ = std::make_unique<Rewriter>(db_->schema());
    manager_ = std::make_unique<ViewManager>(db_->schema(),
                                             PrivacyPolicy{"customer"});
  }

  BoundQuery MustRegisterGrouped(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    auto rq = rewriter_->Rewrite(**stmt);
    EXPECT_TRUE(rq.ok()) << rq.status();
    EXPECT_EQ(rq->combination.terms.size(), 1u);
    auto bound = manager_->RegisterGrouped(
        *rq->combination.terms[0].query, nullptr);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return bound.ok() ? std::move(bound).value() : BoundQuery{};
  }

  /// Flattened grouped answer from `synopses`: the manager's release or
  /// its ground-truth twin.
  static Result<ResultSet> AnswerGrouped(const SynopsisMap& synopses,
                                         const BoundQuery& bound) {
    VR_ASSIGN_OR_RETURN(aggregate::GroupedData data,
                        AnswerBoundGrouped(synopses, bound, {}));
    return data.ToResultSet();
  }

  void Publish(uint64_t seed = 11, double eps = kHugeEpsilon) {
    Random rng(seed);
    Status st = manager_->Publish(*db_, eps, &rng);
    ASSERT_TRUE(st.ok()) << st;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Rewriter> rewriter_;
  std::unique_ptr<ViewManager> manager_;
};

TEST_F(GroupedTest, CountByCategoricalMatchesExecutor) {
  BoundQuery bound = MustRegisterGrouped(
      "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status");
  Publish();
  auto rs = AnswerGrouped(manager_->synopses(), bound);
  ASSERT_TRUE(rs.ok()) << rs.status();
  // One row per category in the registered domain ('f','o','p').
  ASSERT_EQ(rs->NumRows(), 3u);

  Executor executor(*db_);
  auto truth_stmt = ParseSelect(
      "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status");
  ASSERT_TRUE(truth_stmt.ok());
  auto truth = executor.Execute(**truth_stmt);
  ASSERT_TRUE(truth.ok());
  std::map<std::string, double> expected;
  for (const Row& r : truth->rows) {
    expected[r[0].AsString()] = r[1].ToDouble();
  }
  for (const Row& r : rs->rows) {
    double want = expected.count(r[0].AsString())
                      ? expected[r[0].AsString()]
                      : 0.0;
    EXPECT_NEAR(r[1].ToDouble(), want, 1e-3) << r[0].ToString();
  }
}

TEST_F(GroupedTest, FilteredGroupedCount) {
  BoundQuery bound = MustRegisterGrouped(
      "SELECT o_status, COUNT(*) FROM orders o WHERE o.o_totalprice >= 128 "
      "GROUP BY o_status");
  Publish();
  auto rs = AnswerGrouped(manager_->synopses(), bound);
  ASSERT_TRUE(rs.ok()) << rs.status();
  Executor executor(*db_);
  double total = 0;
  for (const Row& r : rs->rows) total += r[1].ToDouble();
  auto truth_stmt = ParseSelect(
      "SELECT COUNT(*) FROM orders WHERE o_totalprice >= 128");
  auto truth = executor.ExecuteScalar(**truth_stmt);
  ASSERT_TRUE(truth.ok());
  EXPECT_NEAR(total, *truth, 1e-3);
}

TEST_F(GroupedTest, GroupedSumMeasure) {
  BoundQuery bound = MustRegisterGrouped(
      "SELECT o_status, SUM(o_totalprice) FROM orders o GROUP BY "
      "o_status");
  Publish();
  auto rs = AnswerGrouped(manager_->synopses(), bound);
  ASSERT_TRUE(rs.ok()) << rs.status();
  Executor executor(*db_);
  auto truth_stmt = ParseSelect(
      "SELECT SUM(o_totalprice) FROM orders");
  auto truth = executor.ExecuteScalar(**truth_stmt);
  ASSERT_TRUE(truth.ok());
  double total = 0;
  for (const Row& r : rs->rows) total += r[1].ToDouble();
  EXPECT_NEAR(total, *truth, 1e-2);
}

TEST_F(GroupedTest, BucketGroupKeysUseRepresentatives) {
  BoundQuery bound = MustRegisterGrouped(
      "SELECT c_acctbal, COUNT(*) FROM customer c GROUP BY c_acctbal");
  Publish();
  auto rs = AnswerGrouped(manager_->synopses(), bound);
  ASSERT_TRUE(rs.ok()) << rs.status();
  // 16 buckets over [0,63].
  EXPECT_EQ(rs->NumRows(), 16u);
  double total = 0;
  for (const Row& r : rs->rows) total += r[1].ToDouble();
  EXPECT_NEAR(total, 40.0, 1e-3);  // all customers counted once
}

TEST_F(GroupedTest, NoisyGroupsStillSumToNoisyTotal) {
  BoundQuery bound = MustRegisterGrouped(
      "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status");
  Publish(/*seed=*/3, /*eps=*/1.0);
  auto noisy = AnswerGrouped(manager_->synopses(), bound);
  auto exact = AnswerGrouped(manager_->ground_truth(), bound);
  ASSERT_TRUE(noisy.ok() && exact.ok());
  ASSERT_EQ(noisy->NumRows(), exact->NumRows());
  bool any_noise = false;
  for (size_t i = 0; i < noisy->NumRows(); ++i) {
    if (std::fabs(noisy->rows[i][1].ToDouble() -
                  exact->rows[i][1].ToDouble()) > 1e-9) {
      any_noise = true;
    }
  }
  EXPECT_TRUE(any_noise);
}

TEST_F(GroupedTest, RejectsUnregisteredGroupColumn) {
  // o_orderkey has no bounded domain: registration must fail cleanly.
  auto stmt = ParseSelect(
      "SELECT o_orderkey, COUNT(*) FROM orders o GROUP BY o_orderkey");
  ASSERT_TRUE(stmt.ok());
  auto rq = rewriter_->Rewrite(**stmt);
  ASSERT_TRUE(rq.ok());
  auto bound = manager_->RegisterGrouped(
      *rq->combination.terms[0].query, nullptr);
  EXPECT_FALSE(bound.ok());
}

TEST_F(GroupedTest, HavingRegistersAndFiltersPostNoise) {
  // HAVING is supported as pure post-processing: registration succeeds
  // (HAVING aggregates register companion measures like select-list
  // ones) and answering drops exactly the groups whose noisy aggregate
  // fails the predicate.
  BoundQuery all = MustRegisterGrouped(
      "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status");
  auto stmt = ParseSelect(
      "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status HAVING "
      "COUNT(*) > 2");
  ASSERT_TRUE(stmt.ok());
  auto filtered = manager_->RegisterGrouped(**stmt, nullptr);
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  Publish();
  auto rs_all = AnswerGrouped(manager_->synopses(), all);
  auto rs_filtered = AnswerGrouped(manager_->synopses(), *filtered);
  ASSERT_TRUE(rs_all.ok()) << rs_all.status();
  ASSERT_TRUE(rs_filtered.ok()) << rs_filtered.status();
  EXPECT_LE(rs_filtered->NumRows(), rs_all->NumRows());
  // Both queries read the same published cells, so every surviving row
  // satisfies the predicate and matches the unfiltered answer exactly.
  for (const auto& row : rs_filtered->rows) {
    EXPECT_GT(row[1].ToDouble(), 2.0);
    bool found = false;
    for (const auto& other : rs_all->rows) {
      if (other[0].AsString() == row[0].AsString() &&
          other[1].ToDouble() == row[1].ToDouble()) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(GroupedTest, ScalarRegistrationStillRejectsGroupBy) {
  auto stmt = ParseSelect(
      "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status");
  ASSERT_TRUE(stmt.ok());
  auto bound = manager_->RegisterScalar(**stmt, nullptr);
  EXPECT_FALSE(bound.ok());
}

}  // namespace
}  // namespace viewrewrite
