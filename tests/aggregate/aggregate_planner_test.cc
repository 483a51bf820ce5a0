#include "aggregate/aggregate_planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/ast.h"
#include "sql/printer.h"

namespace viewrewrite {
namespace aggregate {
namespace {

ExprPtr Col(const std::string& name) {
  return std::make_unique<ColumnRefExpr>("", name);
}

ExprPtr Lit(double v) {
  return std::make_unique<LiteralExpr>(Value::Double(v));
}

ExprPtr IntLit(int64_t v) {
  return std::make_unique<LiteralExpr>(Value::Int(v));
}

ExprPtr NullLit() {
  return std::make_unique<LiteralExpr>(Value::Null());
}

ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}

std::unique_ptr<FuncCallExpr> Agg(const std::string& name, ExprPtr arg) {
  std::vector<ExprPtr> args;
  if (arg) args.push_back(std::move(arg));
  return std::make_unique<FuncCallExpr>(name, std::move(args));
}

std::unique_ptr<FuncCallExpr> CountStar() {
  std::vector<ExprPtr> args;
  args.push_back(std::make_unique<StarExpr>());
  return std::make_unique<FuncCallExpr>("count", std::move(args));
}

TEST(PlanAggregateTest, CountStarReadsOnlyTheCountMeasure) {
  auto plan = PlanAggregate(*CountStar());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->derivation, Derivation::kCount);
  EXPECT_TRUE(plan->needs_count);
  EXPECT_TRUE(plan->sum_key.empty());
  EXPECT_TRUE(plan->sumsq_key.empty());
}

TEST(PlanAggregateTest, SumReadsItsSumMeasure) {
  auto plan = PlanAggregate(*Agg("sum", Col("o_totalprice")));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->derivation, Derivation::kSum);
  EXPECT_EQ(plan->sum_key, "sum:o_totalprice");
  EXPECT_FALSE(plan->needs_count);
}

TEST(PlanAggregateTest, AvgDerivesFromSumAndCount) {
  // The headline derivation: AVG is never materialized, only its sum and
  // count companions are, so registering AVG costs no extra budget.
  auto plan = PlanAggregate(*Agg("avg", Col("o_totalprice")));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->derivation, Derivation::kAvg);
  EXPECT_EQ(plan->sum_key, "sum:o_totalprice");
  EXPECT_TRUE(plan->needs_count);
  EXPECT_TRUE(plan->sumsq_key.empty());
}

TEST(PlanAggregateTest, VarianceNeedsSumSumsqAndCount) {
  auto plan = PlanAggregate(*Agg("variance", Col("x")));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->derivation, Derivation::kVariance);
  EXPECT_EQ(plan->sum_key, "sum:x");
  EXPECT_FALSE(plan->sumsq_key.empty());
  EXPECT_TRUE(plan->needs_count);
  ASSERT_NE(plan->square, nullptr);
  // The companion is the sum of squares: key must match the planner's
  // own canonicalization of arg*arg, so register and answer time agree.
  EXPECT_EQ(plan->sumsq_key, SumMeasureKey(*plan->square));
}

TEST(PlanAggregateTest, StddevSharesVarianceCompanions) {
  auto var = PlanAggregate(*Agg("variance", Col("x")));
  auto sd = PlanAggregate(*Agg("stddev", Col("x")));
  ASSERT_TRUE(var.ok() && sd.ok());
  EXPECT_EQ(sd->derivation, Derivation::kStddev);
  EXPECT_EQ(sd->sum_key, var->sum_key);
  EXPECT_EQ(sd->sumsq_key, var->sumsq_key);
}

TEST(PlanAggregateTest, MinMaxAreExtremumScans) {
  auto lo = PlanAggregate(*Agg("min", Col("o_totalprice")));
  auto hi = PlanAggregate(*Agg("max", Col("o_totalprice")));
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_EQ(lo->derivation, Derivation::kExtremum);
  EXPECT_TRUE(lo->is_extremum);
  EXPECT_TRUE(hi->is_extremum);
}

TEST(PlanAggregateTest, DistinctIsUnsupported) {
  FuncCallExpr agg("count", [] {
    std::vector<ExprPtr> args;
    args.push_back(Col("o_custkey"));
    return args;
  }(), /*dist=*/true);
  auto plan = PlanAggregate(agg);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST(PlanAggregateTest, ExtremumOverExpressionIsUnsupported) {
  auto plan = PlanAggregate(
      *Agg("min", Bin(BinaryOp::kMul, Col("x"), Lit(2))));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST(EvaluateDerivedTest, AvgDividesAndClampsTinyCounts) {
  EXPECT_DOUBLE_EQ(EvaluateDerived(Derivation::kAvg, 4.0, 10.0, 0.0), 2.5);
  // Noisy counts can land at or below zero; the ratio clamps the
  // denominator to 1 instead of exploding.
  EXPECT_DOUBLE_EQ(EvaluateDerived(Derivation::kAvg, -3.0, 10.0, 0.0), 10.0);
}

TEST(EvaluateDerivedTest, VarianceClampsNegativeToZero) {
  // E[x^2] - E[x]^2 with noisy readings can go negative.
  // count=10, sum=100, sumsq=999: E[x^2]=99.9 < E[x]^2=100 -> clamp to 0.
  const double v = EvaluateDerived(Derivation::kVariance, 10.0, 100.0, 999.0);
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EvaluateDerivedTest, VarianceAndStddevAgree) {
  // 4 values {1,2,3,4}: sum=10, sumsq=30, count=4 -> population var 1.25.
  const double var = EvaluateDerived(Derivation::kVariance, 4.0, 10.0, 30.0);
  const double sd = EvaluateDerived(Derivation::kStddev, 4.0, 10.0, 30.0);
  EXPECT_DOUBLE_EQ(var, 1.25);
  EXPECT_DOUBLE_EQ(sd, std::sqrt(1.25));
  // Negative noisy variance must square-root to 0, not NaN.
  const double sd0 = EvaluateDerived(Derivation::kStddev, 10.0, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(sd0, 0.0);
}

/// Aggregates by canonical SQL; columns by qualified, then bare name.
struct MapContext : EvalContext {
  std::optional<double> Aggregate(const FuncCallExpr& call) const override {
    auto it = aggregates->find(ToSql(call));
    if (it == aggregates->end()) return std::nullopt;
    return it->second;
  }
  const Value* Column(const ColumnRefExpr& ref) const override {
    auto it = columns->find(ref.FullName());
    if (it == columns->end()) it = columns->find(ref.column);
    return it == columns->end() ? nullptr : &it->second;
  }
  const Value* Param(const ParamExpr&) const override { return nullptr; }

  const std::map<std::string, double>* aggregates = nullptr;
  const std::map<std::string, Value>* columns = nullptr;
};

class EvalExprTest : public ::testing::Test {
 protected:
  EvalExprTest() {
    aggregates_[ToSql(*CountStar())] = 7.0;
    aggregates_[ToSql(*Agg("avg", Col("o_totalprice")))] = 2.5;
    columns_["o_status"] = Value::String("f");
    columns_["o.o_status"] = Value::String("f");
    ctx_.aggregates = &aggregates_;
    ctx_.columns = &columns_;
  }

  std::map<std::string, double> aggregates_;
  std::map<std::string, Value> columns_;
  MapContext ctx_;
};

TEST_F(EvalExprTest, AggregateCallsResolveByCanonicalSql) {
  auto v = EvalExpr(*CountStar(), ctx_);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_DOUBLE_EQ(v->ToDouble(), 7.0);
  auto missing = EvalExpr(*Agg("sum", Col("no_such")), ctx_);
  EXPECT_FALSE(missing.ok());
}

TEST_F(EvalExprTest, GroupColumnsResolveQualifiedOrBare) {
  auto bare = EvalExpr(*Col("o_status"), ctx_);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->AsString(), "f");
  ColumnRefExpr qualified("o", "o_status");
  auto q = EvalExpr(qualified, ctx_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->AsString(), "f");
}

TEST_F(EvalExprTest, ArithmeticAndDivisionByZero) {
  auto sum = EvalExpr(*Bin(BinaryOp::kAdd, CountStar(), Lit(3)), ctx_);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->ToDouble(), 10.0);
  auto div0 = EvalExpr(*Bin(BinaryOp::kDiv, Lit(1), Lit(0)), ctx_);
  ASSERT_FALSE(div0.ok());
  EXPECT_EQ(div0.status().code(), StatusCode::kExecutionError);
}

TEST_F(EvalExprTest, ComparisonsYieldIntBooleans) {
  auto ge = EvalExpr(*Bin(BinaryOp::kGe, CountStar(), Lit(5)), ctx_);
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->AsInt(), 1);
  auto lt = EvalExpr(*Bin(BinaryOp::kLt, CountStar(), Lit(5)), ctx_);
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->AsInt(), 0);
}

TEST_F(EvalExprTest, ThreeValuedLogic) {
  // NULL comparisons propagate NULL; AND/OR follow SQL tri-logic.
  auto null_cmp = EvalExpr(*Bin(BinaryOp::kGt, NullLit(), Lit(1)), ctx_);
  ASSERT_TRUE(null_cmp.ok());
  EXPECT_TRUE(null_cmp->is_null());
  auto null_or_true =
      EvalExpr(*Bin(BinaryOp::kOr, NullLit(), IntLit(1)), ctx_);
  ASSERT_TRUE(null_or_true.ok());
  EXPECT_EQ(null_or_true->AsInt(), 1);
  auto null_and_false =
      EvalExpr(*Bin(BinaryOp::kAnd, NullLit(), IntLit(0)), ctx_);
  ASSERT_TRUE(null_and_false.ok());
  EXPECT_EQ(null_and_false->AsInt(), 0);
  auto null_and_true =
      EvalExpr(*Bin(BinaryOp::kAnd, NullLit(), IntLit(1)), ctx_);
  ASSERT_TRUE(null_and_true.ok());
  EXPECT_TRUE(null_and_true->is_null());
  auto not_null = EvalExpr(
      *std::make_unique<UnaryExpr>(UnaryOp::kNot, NullLit()), ctx_);
  ASSERT_TRUE(not_null.ok());
  EXPECT_TRUE(not_null->is_null());
}

TEST_F(EvalExprTest, HavingDropsFalseAndNullKeepsTrue) {
  auto keep = EvaluateHaving(*Bin(BinaryOp::kGe, CountStar(), Lit(5)), ctx_);
  ASSERT_TRUE(keep.ok());
  EXPECT_TRUE(*keep);
  auto drop = EvaluateHaving(*Bin(BinaryOp::kLt, CountStar(), Lit(5)), ctx_);
  ASSERT_TRUE(drop.ok());
  EXPECT_FALSE(*drop);
  // HAVING NULL drops the group (SQL semantics), it is not an error.
  auto null_pred =
      EvaluateHaving(*Bin(BinaryOp::kGt, NullLit(), Lit(1)), ctx_);
  ASSERT_TRUE(null_pred.ok());
  EXPECT_FALSE(*null_pred);
}

TEST_F(EvalExprTest, HavingOverDerivedMeasure) {
  // HAVING AVG(o_totalprice) > 2 reads the derived aggregate by its
  // canonical SQL, exactly how the synopsis publishes it.
  auto keep = EvaluateHaving(
      *Bin(BinaryOp::kGt, Agg("avg", Col("o_totalprice")), Lit(2)), ctx_);
  ASSERT_TRUE(keep.ok());
  EXPECT_TRUE(*keep);
}

}  // namespace
}  // namespace aggregate
}  // namespace viewrewrite
