#include <gtest/gtest.h>

#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "view/view_manager.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

/// FK-constraint DP semantics: views over relations that neither are nor
/// reference the primary privacy relation are identical on every pair of
/// neighboring databases and may be published exactly.
class InsensitiveViewTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testing_support::MakeTestDatabase(5, 35); }

  /// Publishes `sql` under `policy` with a tiny budget and returns
  /// |noisy - exact| — zero iff the view was published without noise.
  double NoiseMagnitude(const std::string& sql, const std::string& policy,
                        uint64_t seed) {
    Rewriter rewriter(db_->schema());
    ViewManager manager(db_->schema(), PrivacyPolicy{policy});
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    auto rq = rewriter.Rewrite(**stmt);
    EXPECT_TRUE(rq.ok()) << rq.status();
    auto bound = manager.RegisterRewritten(*rq, nullptr);
    EXPECT_TRUE(bound.ok()) << bound.status();
    Random rng(seed);
    Status st = manager.Publish(*db_, /*eps=*/0.01, &rng);
    EXPECT_TRUE(st.ok()) << st;
    auto noisy = AnswerBound(manager.synopses(), *bound);
    auto exact = AnswerBound(manager.ground_truth(), *bound);
    EXPECT_TRUE(noisy.ok() && exact.ok());
    return std::fabs(*noisy - *exact);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(InsensitiveViewTest, UpstreamRelationIsExactUnderDownstreamPolicy) {
  // customer does not reference orders, so under the orders policy a
  // customer-only query is invariant across neighbors.
  EXPECT_EQ(NoiseMagnitude("SELECT COUNT(*) FROM customer c WHERE "
                           "c.c_acctbal >= 16",
                           "orders", 1),
            0.0);
  // Under the customer policy the same query must be noisy.
  EXPECT_GT(NoiseMagnitude("SELECT COUNT(*) FROM customer c WHERE "
                           "c.c_acctbal >= 16",
                           "customer", 1),
            0.0);
}

TEST_F(InsensitiveViewTest, OrdersExactUnderLineitemPolicy) {
  EXPECT_EQ(NoiseMagnitude("SELECT COUNT(*) FROM customer c, orders o "
                           "WHERE c.c_custkey = o.o_custkey AND c.c_nation "
                           "= 1",
                           "lineitem", 2),
            0.0);
  EXPECT_GT(NoiseMagnitude("SELECT COUNT(*) FROM customer c, orders o "
                           "WHERE c.c_custkey = o.o_custkey AND c.c_nation "
                           "= 1",
                           "orders", 2),
            0.0);
}

TEST_F(InsensitiveViewTest, DownstreamRelationInheritsProtection) {
  // lineitem references orders (transitively customer): noisy under every
  // upstream policy.
  for (const char* policy : {"customer", "orders", "lineitem"}) {
    EXPECT_GT(NoiseMagnitude("SELECT COUNT(*) FROM lineitem l WHERE "
                             "l.l_quantity >= 8",
                             policy, 3),
              0.0)
        << policy;
  }
}

TEST_F(InsensitiveViewTest, DerivedTableOverProtectedDataIsNoisy) {
  // The only path to lineitem runs through an aggregated derived table;
  // the surrogate-key lineage must still add noise under lineitem policy.
  EXPECT_GT(NoiseMagnitude(
                "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= ALL "
                "(SELECT l.l_price FROM lineitem l WHERE l.l_orderkey = "
                "o.o_orderkey)",
                "lineitem", 4),
            0.0);
}

TEST_F(InsensitiveViewTest, DerivedTableOverUnprotectedDataIsExact) {
  // The same shape, but the protected relation is customer-upstream: the
  // derived table aggregates orders only, orders references customer, so
  // under lineitem policy everything here is insensitive.
  EXPECT_EQ(NoiseMagnitude(
                "SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * "
                "FROM orders o WHERE o.o_custkey = c.c_custkey)",
                "lineitem", 5),
            0.0);
}

}  // namespace
}  // namespace viewrewrite
