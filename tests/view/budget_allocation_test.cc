#include <gtest/gtest.h>

#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "view/view_manager.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

class BudgetAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(8, 40);
    rewriter_ = std::make_unique<Rewriter>(db_->schema());
    manager_ = std::make_unique<ViewManager>(db_->schema(),
                                             PrivacyPolicy{"customer"});
  }

  void Register(const std::string& sql, int times = 1) {
    for (int i = 0; i < times; ++i) {
      auto stmt = ParseSelect(sql);
      ASSERT_TRUE(stmt.ok());
      auto rq = rewriter_->Rewrite(**stmt);
      ASSERT_TRUE(rq.ok()) << rq.status();
      auto bound = manager_->RegisterRewritten(*rq, nullptr);
      ASSERT_TRUE(bound.ok()) << bound.status();
      last_bound_ = std::move(bound).value();
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Rewriter> rewriter_;
  std::unique_ptr<ViewManager> manager_;
  BoundRewrittenQuery last_bound_;
};

TEST_F(BudgetAllocationTest, UsageCountsTrackRegistrations) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64", 5);
  Register(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1",
      2);
  ASSERT_EQ(manager_->NumViews(), 2u);
  size_t total_usage = 0;
  for (const auto& view : manager_->views()) {
    total_usage += manager_->ViewUsage(view->signature());
  }
  EXPECT_EQ(total_usage, 7u);
  EXPECT_EQ(manager_->ViewUsage("no-such-view"), 0u);
}

TEST_F(BudgetAllocationTest, UniformSplitsEvenly) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64", 9);
  Register(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1",
      1);
  Random rng(1);
  ASSERT_TRUE(manager_->Publish(*db_, 8.0, &rng,
                                BudgetAllocation::kUniform).ok());
  ASSERT_EQ(manager_->accountant()->ledger().size(), 2u);
  EXPECT_DOUBLE_EQ(manager_->accountant()->ledger()[0].epsilon, 4.0);
  EXPECT_DOUBLE_EQ(manager_->accountant()->ledger()[1].epsilon, 4.0);
}

TEST_F(BudgetAllocationTest, ByUsageWeightsPopularViews) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64", 9);
  Register(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1",
      1);
  Random rng(1);
  ASSERT_TRUE(manager_->Publish(*db_, 10.0, &rng,
                                BudgetAllocation::kByUsage).ok());
  const auto& ledger = manager_->accountant()->ledger();
  ASSERT_EQ(ledger.size(), 2u);
  // 9:1 usage -> 9.0 and 1.0 of the 10.0 budget (ledger order follows
  // registration order).
  double hi = std::max(ledger[0].epsilon, ledger[1].epsilon);
  double lo = std::min(ledger[0].epsilon, ledger[1].epsilon);
  EXPECT_DOUBLE_EQ(hi, 9.0);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  // Total spend is still exactly the budget (sequential composition).
  EXPECT_NEAR(manager_->accountant()->spent(), 10.0, 1e-9);
}

TEST_F(BudgetAllocationTest, ByUsageImprovesPopularViewAccuracy) {
  // With a 9:1 usage skew, the popular view's answers should be more
  // accurate under kByUsage than under kUniform (on average over seeds).
  const char* popular =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64";
  double uniform_err = 0;
  double usage_err = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    for (bool by_usage : {false, true}) {
      SetUp();
      Register(popular, 9);
      Register(
          "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
          "o.o_custkey AND c.c_nation = 1",
          1);
      Register(popular);  // the bound query we measure
      Random rng(seed);
      ASSERT_TRUE(manager_
                      ->Publish(*db_, 2.0, &rng,
                                by_usage ? BudgetAllocation::kByUsage
                                         : BudgetAllocation::kUniform)
                      .ok());
      auto noisy = AnswerBound(manager_->synopses(), last_bound_);
      auto exact = AnswerBound(manager_->ground_truth(), last_bound_);
      ASSERT_TRUE(noisy.ok() && exact.ok());
      double err = std::fabs(*noisy - *exact);
      (by_usage ? usage_err : uniform_err) += err;
    }
  }
  EXPECT_LT(usage_err, uniform_err);
}

TEST_F(BudgetAllocationTest, RangeQueryMatchesTruthAtHugeBudget) {
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 AND "
           "o.o_totalprice < 192");
  Random rng(3);
  ASSERT_TRUE(manager_->Publish(*db_, 1e9, &rng).ok());
  auto noisy = AnswerBound(manager_->synopses(), last_bound_);
  auto exact = AnswerBound(manager_->ground_truth(), last_bound_);
  ASSERT_TRUE(noisy.ok()) << noisy.status();
  ASSERT_TRUE(exact.ok());
  EXPECT_GT(*exact, 0);
  // Huge budget: summing the noisy identity cells over the range must
  // match the truth.
  EXPECT_NEAR(*noisy, *exact, 1e-3);
}

TEST_F(BudgetAllocationTest, DisjointRangesMatchTruthAtHugeBudget) {
  // Disjoint ranges select a non-contiguous set of cells.
  Register("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice < 32 OR "
           "o.o_totalprice >= 224");
  Random rng(4);
  ASSERT_TRUE(manager_->Publish(*db_, 1e9, &rng).ok());
  auto noisy = AnswerBound(manager_->synopses(), last_bound_);
  auto exact = AnswerBound(manager_->ground_truth(), last_bound_);
  ASSERT_TRUE(noisy.ok()) << noisy.status();
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(*noisy, *exact, 1e-3);
}

}  // namespace
}  // namespace viewrewrite
