#include "aggregate/aggregate_planner.h"

#include <algorithm>
#include <cmath>

#include "sql/printer.h"

namespace viewrewrite {
namespace aggregate {

std::string SumMeasureKey(const Expr& arg) { return "sum:" + ToSql(arg); }

Result<AggregatePlan> PlanAggregate(const FuncCallExpr& agg) {
  AggregatePlan plan;
  if (agg.distinct) {
    return Status::Unsupported("DISTINCT aggregates cannot be derived from "
                               "published measures");
  }
  const bool is_count_star =
      agg.args.empty() ||
      (agg.args.size() == 1 && agg.args[0]->kind == ExprKind::kStar);
  if (agg.name == "count") {
    plan.derivation = Derivation::kCount;
    plan.needs_count = true;
    if (!is_count_star) plan.arg = agg.args[0]->Clone();
    return plan;
  }
  if (agg.args.size() != 1 || is_count_star) {
    return Status::Unsupported("aggregate " + agg.name +
                               " requires exactly one argument");
  }
  plan.arg = agg.args[0]->Clone();
  if (agg.name == "sum") {
    plan.derivation = Derivation::kSum;
    plan.sum_key = SumMeasureKey(*plan.arg);
    return plan;
  }
  if (agg.name == "avg") {
    plan.derivation = Derivation::kAvg;
    plan.sum_key = SumMeasureKey(*plan.arg);
    plan.needs_count = true;
    return plan;
  }
  if (agg.name == "variance" || agg.name == "stddev") {
    plan.derivation = agg.name == "variance" ? Derivation::kVariance
                                             : Derivation::kStddev;
    plan.sum_key = SumMeasureKey(*plan.arg);
    plan.square =
        MakeBinary(BinaryOp::kMul, plan.arg->Clone(), plan.arg->Clone());
    plan.sumsq_key = SumMeasureKey(*plan.square);
    plan.needs_count = true;
    return plan;
  }
  if (agg.name == "min" || agg.name == "max") {
    if (plan.arg->kind != ExprKind::kColumnRef) {
      return Status::Unsupported("MIN/MAX over non-column expressions is not "
                                 "supported on synopses");
    }
    plan.derivation = Derivation::kExtremum;
    plan.is_extremum = true;
    return plan;
  }
  return Status::Unsupported("aggregate function not supported: " + agg.name);
}

double EvaluateDerived(Derivation derivation, double count, double sum,
                       double sumsq) {
  switch (derivation) {
    case Derivation::kCount:
      return count;
    case Derivation::kSum:
      return sum;
    case Derivation::kAvg:
      return sum / std::max(count, 1.0);
    case Derivation::kVariance:
    case Derivation::kStddev: {
      const double n = std::max(count, 1.0);
      const double mean = sum / n;
      const double variance = std::max(sumsq / n - mean * mean, 0.0);
      return derivation == Derivation::kVariance ? variance
                                                 : std::sqrt(variance);
    }
    case Derivation::kExtremum:
      return 0;  // extremum values never flow through EvaluateDerived
  }
  return 0;
}

namespace {

// SQL three-valued truth from a Value: NULL stays unknown, numerics are
// truthy when non-zero.
enum class Tri { kFalse, kTrue, kNull };

Result<Tri> Truth(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (!v.is_numeric()) {
    return Status::TypeMismatch("expected boolean condition");
  }
  return v.ToDouble() != 0 ? Tri::kTrue : Tri::kFalse;
}

Value FromTri(Tri t) {
  switch (t) {
    case Tri::kTrue: return Value::Int(1);
    case Tri::kFalse: return Value::Int(0);
    case Tri::kNull: return Value::Null();
  }
  return Value::Null();
}

Result<Value> EvalBinary(const BinaryExpr& bin, const EvalContext& ctx);

Result<Value> EvalImpl(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value;
    case ExprKind::kParam: {
      const auto& p = static_cast<const ParamExpr&>(expr);
      if (ctx.params != nullptr) {
        auto it = ctx.params->find(p.name);
        if (it != ctx.params->end()) return it->second;
      }
      return Status::NotFound("unbound parameter '$" + p.name + "'");
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ctx.columns != nullptr) {
        auto it = ctx.columns->find(ref.FullName());
        if (it == ctx.columns->end()) it = ctx.columns->find(ref.column);
        if (it != ctx.columns->end()) return it->second;
      }
      return Status::ExecutionError("column not available in aggregate "
                                    "context: " +
                                    ref.FullName());
    }
    case ExprKind::kFuncCall: {
      const auto& call = static_cast<const FuncCallExpr&>(expr);
      if (!call.IsAggregate()) {
        return Status::Unsupported("scalar function in aggregate context: " +
                                   call.name);
      }
      if (ctx.aggregates != nullptr) {
        auto it = ctx.aggregates->find(ToSql(call));
        if (it != ctx.aggregates->end()) return Value::Double(it->second);
      }
      return Status::ExecutionError("aggregate not answered for this group: " +
                                    ToSql(call));
    }
    case ExprKind::kBinary:
      return EvalBinary(static_cast<const BinaryExpr&>(expr), ctx);
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      VR_ASSIGN_OR_RETURN(Value v, EvalImpl(*un.operand, ctx));
      if (un.op == UnaryOp::kNot) {
        VR_ASSIGN_OR_RETURN(Tri t, Truth(v));
        if (t == Tri::kNull) return Value::Null();
        return FromTri(t == Tri::kTrue ? Tri::kFalse : Tri::kTrue);
      }
      if (v.is_null()) return Value::Null();
      if (!v.is_numeric()) {
        return Status::TypeMismatch("cannot negate a non-numeric value");
      }
      return Value::Double(-v.ToDouble());
    }
    default:
      return Status::Unsupported(
          "expression not supported over noisy aggregates");
  }
}

Result<Value> EvalBinary(const BinaryExpr& bin, const EvalContext& ctx) {
  if (bin.op == BinaryOp::kAnd || bin.op == BinaryOp::kOr) {
    VR_ASSIGN_OR_RETURN(Value lv, EvalImpl(*bin.left, ctx));
    VR_ASSIGN_OR_RETURN(Tri lt, Truth(lv));
    // Three-valued short circuit: AND with a false side is false, OR
    // with a true side is true, regardless of NULL on the other side.
    if (bin.op == BinaryOp::kAnd && lt == Tri::kFalse) return Value::Int(0);
    if (bin.op == BinaryOp::kOr && lt == Tri::kTrue) return Value::Int(1);
    VR_ASSIGN_OR_RETURN(Value rv, EvalImpl(*bin.right, ctx));
    VR_ASSIGN_OR_RETURN(Tri rt, Truth(rv));
    if (bin.op == BinaryOp::kAnd) {
      if (rt == Tri::kFalse) return Value::Int(0);
      if (lt == Tri::kNull || rt == Tri::kNull) return Value::Null();
      return Value::Int(1);
    }
    if (rt == Tri::kTrue) return Value::Int(1);
    if (lt == Tri::kNull || rt == Tri::kNull) return Value::Null();
    return Value::Int(0);
  }

  VR_ASSIGN_OR_RETURN(Value lv, EvalImpl(*bin.left, ctx));
  VR_ASSIGN_OR_RETURN(Value rv, EvalImpl(*bin.right, ctx));
  if (IsComparisonOp(bin.op)) {
    VR_ASSIGN_OR_RETURN(Value::TriCompare cmp, lv.CompareSql(rv));
    if (cmp.is_null) return Value::Null();
    bool result = false;
    switch (bin.op) {
      case BinaryOp::kEq: result = cmp.cmp == 0; break;
      case BinaryOp::kNe: result = cmp.cmp != 0; break;
      case BinaryOp::kLt: result = cmp.cmp < 0; break;
      case BinaryOp::kLe: result = cmp.cmp <= 0; break;
      case BinaryOp::kGt: result = cmp.cmp > 0; break;
      case BinaryOp::kGe: result = cmp.cmp >= 0; break;
      default: break;
    }
    return Value::Int(result ? 1 : 0);
  }

  if (lv.is_null() || rv.is_null()) return Value::Null();
  if (!lv.is_numeric() || !rv.is_numeric()) {
    return Status::TypeMismatch("arithmetic over non-numeric values");
  }
  const double l = lv.ToDouble();
  const double r = rv.ToDouble();
  switch (bin.op) {
    case BinaryOp::kAdd: return Value::Double(l + r);
    case BinaryOp::kSub: return Value::Double(l - r);
    case BinaryOp::kMul: return Value::Double(l * r);
    case BinaryOp::kDiv:
      if (r == 0) return Status::ExecutionError("division by zero");
      return Value::Double(l / r);
    default:
      return Status::Unsupported("operator not supported over aggregates");
  }
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const EvalContext& ctx) {
  return EvalImpl(expr, ctx);
}

Result<bool> EvaluateHaving(const Expr& having, const EvalContext& ctx) {
  VR_ASSIGN_OR_RETURN(Value v, EvalImpl(having, ctx));
  VR_ASSIGN_OR_RETURN(Tri t, Truth(v));
  return t == Tri::kTrue;  // NULL drops the group, like WHERE
}

}  // namespace aggregate
}  // namespace viewrewrite
