// Every ε the publishing process spends must be charged exactly once.
// Publishing one view spends its truncation pivot, its SVT, and one
// Laplace release per histogram (count first, then each SUM measure).
// These tests observe the releases at the dp.mechanism fault point,
// recover each release's ε from the noise scale published with it, and
// require the total to equal the ledger's charge for the view — so a
// release that is added, doubled or calibrated at the wrong ε fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/fault_injection.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "view/view_manager.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

class EpsilonReconciliationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(5, 40);
    manager_ = std::make_unique<ViewManager>(db_->schema(),
                                             PrivacyPolicy{"customer"});
  }

  /// Registers `sql` as the manager's only view; returns its signature.
  std::string RegisterOnlyView(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    Rewriter rewriter(db_->schema());
    auto rq = rewriter.Rewrite(**stmt);
    EXPECT_TRUE(rq.ok()) << rq.status();
    auto bound = manager_->RegisterRewritten(*rq, nullptr);
    EXPECT_TRUE(bound.ok()) << bound.status();
    EXPECT_EQ(manager_->views().size(), 1u);
    return manager_->views().empty() ? "" : manager_->views()[0]->signature();
  }

  /// The ledger's single charge labelled `label`.
  double Charged(const std::string& label) const {
    double charged = 0;
    int entries = 0;
    for (const BudgetAccountant::Entry& e :
         manager_->accountant()->ledger()) {
      if (e.label != label) continue;
      EXPECT_FALSE(e.refund) << label;
      charged += e.epsilon;
      ++entries;
    }
    EXPECT_EQ(entries, 1) << "ledger entries labelled " << label;
    return charged;
  }

  /// The ε `syn`'s build spent: the truncation pivot and SVT slices of the
  /// budget it was handed, plus each histogram release's ε, recovered from
  /// that release's own noise scale as sensitivity / scale. The count's
  /// sensitivity is τ; a SUM measure's is τ times its value bound.
  static double Spent(const Synopsis& syn, uint64_t releases) {
    const SynopsisOptions options;
    const Synopsis::BuildStats& stats = syn.stats();
    const SynopsisParts parts = syn.ToParts();
    EXPECT_EQ(parts.noise_scales.size(), releases) << "one scale per release";
    double spent = stats.epsilon * options.trunc_pivot_frac +
                   stats.epsilon * options.trunc_svt_frac;
    for (const auto& [key, scale] : parts.noise_scales) {
      EXPECT_GT(scale, 0) << key << ": an insensitive view spends no noise";
      double sensitivity = static_cast<double>(stats.tau);
      const int measure = syn.view().MeasureIndex(key);
      if (measure >= 0) {
        sensitivity *= syn.view().measures()[measure].value_bound;
      }
      spent += sensitivity / scale;
    }
    return spent;
  }

  /// Counts dp.mechanism hits while armed; never fires.
  static ScopedFault CountReleases() {
    return ScopedFault::OnNth(faults::kDpMechanism,
                              std::numeric_limits<uint64_t>::max());
  }

  static uint64_t Releases() {
    return FaultInjection::Instance().HitCount(faults::kDpMechanism);
  }

  /// Publishes the single registered view and reconciles its spend with
  /// its ledger charge; returns the number of histogram releases.
  uint64_t PublishAndReconcile(const std::string& sig) {
    uint64_t releases = 0;
    {
      ScopedFault counter = CountReleases();
      Random rng(17);
      Status st = manager_->Publish(*db_, 2.0, &rng,
                                    BudgetAllocation::kUniform,
                                    /*degraded=*/false,
                                    /*lifetime_epsilon=*/4.0);
      EXPECT_TRUE(st.ok()) << st;
      releases = Releases();
    }
    const Synopsis& syn = manager_->synopses().at(sig);
    EXPECT_NEAR(Spent(syn, releases), Charged("synopsis:" + sig), 1e-12);
    return releases;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewManager> manager_;
};

TEST_F(EpsilonReconciliationTest, CountOnlyView) {
  const std::string sig = RegisterOnlyView(
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64");
  EXPECT_EQ(PublishAndReconcile(sig), 1u);
}

TEST_F(EpsilonReconciliationTest, JoinView) {
  const std::string sig = RegisterOnlyView(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1");
  EXPECT_EQ(PublishAndReconcile(sig), 1u);
}

TEST_F(EpsilonReconciliationTest, ViewWithSumMeasures) {
  // VARIANCE reads the count, the sum and the sum of squares: three
  // histogram releases, each at the view's per-release ε.
  const std::string sig = RegisterOnlyView(
      "SELECT VARIANCE(o.o_totalprice) FROM orders o WHERE o.o_status = 'o'");
  EXPECT_EQ(PublishAndReconcile(sig), 3u);
}

TEST_F(EpsilonReconciliationTest, RepublishGenerationChargesItsRebuild) {
  const std::string sig = RegisterOnlyView(
      "SELECT SUM(o.o_totalprice) FROM orders o WHERE o.o_status = 'f'");
  EXPECT_EQ(PublishAndReconcile(sig), 2u);

  uint64_t releases = 0;
  {
    ScopedFault counter = CountReleases();
    Random rng(23);
    auto outcome = manager_->RepublishViews(*db_, {"orders"}, 1.0, &rng, 1);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_EQ(outcome->rebuilt.size(), 1u);
    releases = Releases();
  }
  EXPECT_EQ(releases, 2u);
  const Synopsis& rebuilt = manager_->synopses().at(sig);
  EXPECT_NEAR(Spent(rebuilt, releases), Charged("gen1:synopsis:" + sig),
              1e-12);
}

}  // namespace
}  // namespace viewrewrite
