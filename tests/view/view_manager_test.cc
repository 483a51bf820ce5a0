#include "view/view_manager.h"

#include <gtest/gtest.h>

#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

class ViewManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(4, 30);
    schema_ = &db_->schema();
    rewriter_ = std::make_unique<Rewriter>(*schema_);
    manager_ = std::make_unique<ViewManager>(*schema_,
                                             PrivacyPolicy{"customer"});
  }

  void Register(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto rq = rewriter_->Rewrite(**stmt);
    ASSERT_TRUE(rq.ok()) << rq.status();
    auto bound = manager_->RegisterRewritten(*rq, nullptr);
    ASSERT_TRUE(bound.ok()) << bound.status();
  }

  std::unique_ptr<Database> db_;
  const Schema* schema_ = nullptr;
  std::unique_ptr<Rewriter> rewriter_;
  std::unique_ptr<ViewManager> manager_;
};

TEST_F(ViewManagerTest, SameStructureSharesOneView) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 128");
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'");
  EXPECT_EQ(manager_->NumViews(), 1u);
}

TEST_F(ViewManagerTest, AttributesAccumulateAcrossQueries) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'");
  ASSERT_EQ(manager_->NumViews(), 1u);
  EXPECT_EQ(manager_->views()[0]->attributes().size(), 2u);
}

TEST_F(ViewManagerTest, DifferentJoinsMakeDifferentViews) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  Register(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1");
  EXPECT_EQ(manager_->NumViews(), 2u);
}

TEST_F(ViewManagerTest, SubqueryConstantsDoNotAddViews) {
  // The paper's headline: nested-query filter constants must not
  // proliferate views.
  for (int k = 0; k < 5; ++k) {
    Register(
        "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM "
        "orders o WHERE o.o_custkey = c.c_custkey AND o.o_custkey >= " +
        std::to_string(4 * (k + 1)) + ")");
  }
  EXPECT_EQ(manager_->NumViews(), 1u);
}

TEST_F(ViewManagerTest, BakedPredicatesSplitViews) {
  // With a bake-everything policy (PrivateSQL-style), constants land in
  // the view definition and views multiply.
  ViewManager::BakePredicate bake_all = [](const Expr&) { return true; };
  for (int k = 0; k < 3; ++k) {
    auto stmt = ParseSelect(
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= " +
        std::to_string(64 * (k + 1)));
    ASSERT_TRUE(stmt.ok());
    auto rq = rewriter_->Rewrite(**stmt);
    ASSERT_TRUE(rq.ok());
    auto bound = manager_->RegisterRewritten(*rq, bake_all);
    ASSERT_TRUE(bound.ok());
  }
  EXPECT_EQ(manager_->NumViews(), 3u);
}

TEST_F(ViewManagerTest, MeasuresAccumulate) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  Register("SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'f'");
  ASSERT_EQ(manager_->NumViews(), 1u);
  EXPECT_EQ(manager_->views()[0]->measures().size(), 1u);  // the SUM
  EXPECT_EQ(manager_->views()[0]->measures()[0].kind,
            ViewMeasure::Kind::kSum);
}

TEST_F(ViewManagerTest, GroupedWorkloadQueriesRegister) {
  auto stmt = ParseSelect(
      "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey");
  ASSERT_TRUE(stmt.ok());
  auto rq = rewriter_->Rewrite(**stmt);
  ASSERT_TRUE(rq.ok());
  auto bound = manager_->RegisterRewritten(*rq, nullptr);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // The grouped term binds with its full statement (GROUP BY preserved)
  // and the group column became a dimension of the registered view.
  ASSERT_EQ(bound->terms.size(), 1u);
  ASSERT_NE(bound->terms[0].query.cell_query, nullptr);
  EXPECT_FALSE(bound->terms[0].query.cell_query->group_by.empty());
  ASSERT_EQ(manager_->NumViews(), 1u);
  EXPECT_GE(manager_->views()[0]->AttributeIndex("orders", "o_custkey"), 0);
}

TEST_F(ViewManagerTest, PublishWithoutViewsFails) {
  Random rng(1);
  EXPECT_FALSE(manager_->Publish(*db_, 1.0, &rng).ok());
}

TEST_F(ViewManagerTest, BudgetSplitsEvenlyAcrossViews) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  Register(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1");
  Random rng(2);
  ASSERT_TRUE(manager_->Publish(*db_, 8.0, &rng).ok());
  ASSERT_NE(manager_->accountant(), nullptr);
  EXPECT_NEAR(manager_->accountant()->spent(), 8.0, 1e-9);
  ASSERT_EQ(manager_->accountant()->ledger().size(), 2u);
  EXPECT_DOUBLE_EQ(manager_->accountant()->ledger()[0].epsilon, 4.0);
}

TEST_F(ViewManagerTest, AnswerBeforePublishFails) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM orders o");
  ASSERT_TRUE(stmt.ok());
  auto rq = rewriter_->Rewrite(**stmt);
  ASSERT_TRUE(rq.ok());
  auto bound = manager_->RegisterRewritten(*rq, nullptr);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(AnswerBound(manager_->synopses(), *bound).ok());
}

TEST_F(ViewManagerTest, ViewCountIndependentOfWorkloadSize) {
  // Growing the workload with constant-varied instances of the same
  // templates keeps the view count flat (Fig. 6e, ViewRewrite side).
  std::vector<size_t> counts;
  for (int n : {4, 16, 64}) {
    SetUp();  // fresh manager
    for (int i = 0; i < n; ++i) {
      int c = 4 * (i % 15 + 1);
      Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= " +
               std::to_string(c));
      Register(
          "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM "
          "orders o WHERE o.o_custkey = c.c_custkey AND o.o_custkey >= " +
          std::to_string(c) + ")");
    }
    counts.push_back(manager_->NumViews());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
  EXPECT_EQ(counts[0], 2u);
}

}  // namespace
}  // namespace viewrewrite
