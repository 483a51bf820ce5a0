#include "dp/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fault_injection.h"

namespace viewrewrite {
namespace {

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  auto s = LaplaceMechanism::Scale(2.0, 0.5);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, 4.0);
}

TEST(LaplaceMechanismTest, RejectsNonPositiveEpsilon) {
  EXPECT_FALSE(LaplaceMechanism::Scale(1.0, 0.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Scale(1.0, -1.0).ok());
  EXPECT_EQ(LaplaceMechanism::Scale(1.0, -1.0).status().code(),
            StatusCode::kPrivacyError);
}

TEST(LaplaceMechanismTest, RejectsNegativeSensitivity) {
  EXPECT_FALSE(LaplaceMechanism::Scale(-1.0, 1.0).ok());
}

TEST(LaplaceMechanismTest, ZeroSensitivityIsExact) {
  Random rng(1);
  auto r = LaplaceMechanism::Release(42.0, 0.0, 1.0, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42.0);
}

TEST(LaplaceMechanismTest, NoiseConcentratesAroundTruth) {
  Random rng(7);
  const double sensitivity = 1.0;
  const double eps = 1.0;
  const int n = 100000;
  double sum = 0;
  double abs_dev = 0;
  for (int i = 0; i < n; ++i) {
    auto r = LaplaceMechanism::Release(100.0, sensitivity, eps, &rng);
    ASSERT_TRUE(r.ok());
    sum += *r;
    abs_dev += std::fabs(*r - 100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 0.05);
  // E[|Lap(b)|] = b = 1.
  EXPECT_NEAR(abs_dev / n, 1.0, 0.05);
}

TEST(LaplaceMechanismTest, NonFiniteReleaseRejected) {
  Random rng(3);
  auto inf = LaplaceMechanism::Release(std::numeric_limits<double>::infinity(),
                                       1.0, 1.0, &rng);
  ASSERT_FALSE(inf.ok());
  EXPECT_EQ(inf.status().code(), StatusCode::kPrivacyError);
  auto nan = LaplaceMechanism::Release(std::nan(""), 1.0, 1.0, &rng);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kPrivacyError);
}

TEST(LaplaceMechanismTest, FaultPointIsInjectable) {
  Random rng(5);
  {
    ScopedFault fault = ScopedFault::OnNth(
        faults::kDpMechanism, 1, Status::PrivacyError("injected"));
    auto r = LaplaceMechanism::Release(1.0, 1.0, 1.0, &rng);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(), "injected");
  }
  EXPECT_TRUE(LaplaceMechanism::Release(1.0, 1.0, 1.0, &rng).ok());
}

TEST(LaplaceMechanismTest, NoiseShrinksWithEpsilon) {
  Random rng(11);
  double dev_small_eps = 0;
  double dev_large_eps = 0;
  for (int i = 0; i < 20000; ++i) {
    dev_small_eps += std::fabs(*LaplaceMechanism::Release(0, 1, 0.1, &rng));
    dev_large_eps += std::fabs(*LaplaceMechanism::Release(0, 1, 10, &rng));
  }
  EXPECT_GT(dev_small_eps, dev_large_eps * 10);
}

TEST(IdentityStrategyTest, PreservesSizeAndApproximatesCells) {
  Random rng(1);
  std::vector<double> cells = {100, 0, 50, 200};
  auto noisy = PublishIdentity(cells, 1.0, 4.0, &rng);
  ASSERT_TRUE(noisy.ok());
  ASSERT_EQ(noisy->size(), 4u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NEAR((*noisy)[i], cells[i], 10.0);
  }
}

TEST(IdentityStrategyTest, RejectsBadEpsilon) {
  Random rng(1);
  EXPECT_FALSE(PublishIdentity({1.0}, 1.0, 0.0, &rng).ok());
}

TEST(IdentityStrategyTest, NoiseMagnitudeMatchesScale) {
  Random rng(2);
  std::vector<double> cells(20000, 0.0);
  auto noisy = PublishIdentity(cells, 2.0, 1.0, &rng);
  ASSERT_TRUE(noisy.ok());
  double abs_dev = 0;
  for (double v : *noisy) abs_dev += std::fabs(v);
  // E|Lap(b)| = b = sensitivity / epsilon = 2.
  EXPECT_NEAR(abs_dev / noisy->size(), 2.0, 0.1);
}

TEST(IdentityStrategyTest, EmptyCellsPublishNothing) {
  Random rng(3);
  auto noisy = PublishIdentity({}, 1.0, 1.0, &rng);
  ASSERT_TRUE(noisy.ok());
  EXPECT_TRUE(noisy->empty());
}

}  // namespace
}  // namespace viewrewrite
