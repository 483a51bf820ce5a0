#ifndef VIEWREWRITE_AGGREGATE_AGGREGATE_PLANNER_H_
#define VIEWREWRITE_AGGREGATE_AGGREGATE_PLANNER_H_

// Derived-measure planning, after Cohen & Nutt's aggregate-rewriting
// rules: every requested aggregate resolves to measures that are (or
// can be) materialized in a published view, so answering it later is
// pure post-processing of already-noised cells — no additional budget.
//
//   COUNT(*)        <- count
//   SUM(e)          <- sum:e
//   AVG(e)          <- sum:e / count
//   VARIANCE(e)     <- sum:(e*e)/count - (sum:e/count)^2
//   STDDEV(e)       <- sqrt(VARIANCE(e))
//   MIN/MAX(col)    <- extremum scan over the count grid
//
// PlanAggregate is consulted both at register time (to add the missing
// companion measures, e.g. the sum-of-squares for VARIANCE) and at
// answer time (to combine the published measures), so the two sides can
// never disagree about what a derived aggregate needs.

#include <map>
#include <string>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace viewrewrite {
namespace aggregate {

/// How a requested aggregate is derived from published measures.
enum class Derivation {
  kCount,     // read the count measure
  kSum,       // read the sum:<arg> measure
  kAvg,       // sum / count
  kVariance,  // sumsq/count - (sum/count)^2
  kStddev,    // sqrt of variance
  kExtremum,  // min/max estimated from the count grid
};

/// Resolution of one aggregate call to the measures it reads.
struct AggregatePlan {
  Derivation derivation = Derivation::kCount;
  ExprPtr arg;             // cloned argument; null for COUNT(*)
  ExprPtr square;          // cloned arg*arg; variance/stddev only
  std::string sum_key;     // "sum:<sql>" when a sum measure is read
  std::string sumsq_key;   // "sum:<sql>" of the square; variance/stddev only
  bool needs_count = false;  // reads the count measure at answer time
  bool is_extremum = false;  // answered by extremum scan (arg is a column)
};

/// Measure key for SUM over `arg` ("sum:" + canonical SQL of arg).
std::string SumMeasureKey(const Expr& arg);

/// Resolves `agg` (count/sum/avg/min/max/variance/stddev) to a plan.
/// DISTINCT and non-column MIN/MAX arguments are Unsupported.
Result<AggregatePlan> PlanAggregate(const FuncCallExpr& agg);

/// Combines published measure readings into the derived value.
/// `count` is clamped to >= 1 for ratio derivations (matching the
/// scalar AVG path); variance is clamped to >= 0 before sqrt.
double EvaluateDerived(Derivation derivation, double count, double sum,
                       double sumsq);

/// Context for evaluating select-item and HAVING expressions over a
/// (possibly grouped) answer: noisy aggregate readings keyed by the
/// canonical SQL of the aggregate call, the group-key column values
/// (empty for scalar answers), and the query's $param bindings (so a
/// template's `HAVING COUNT(*) >= $1` evaluates).
struct EvalContext {
  const std::map<std::string, double>* aggregates = nullptr;
  // Keyed by both "t.c" and bare "c" for each group column.
  const std::map<std::string, Value>* columns = nullptr;
  const std::map<std::string, Value>* params = nullptr;
};

/// Evaluates an expression over noisy aggregates and group keys:
/// literals, bound $params, group-column refs, aggregate calls (by
/// canonical SQL),
/// +-*/ arithmetic (division by zero is ExecutionError), comparisons,
/// AND/OR/NOT with SQL three-valued logic (booleans are Int 0/1, NULL
/// propagates). Anything else is Unsupported.
Result<Value> EvalExpr(const Expr& expr, const EvalContext& ctx);

/// Evaluates a HAVING predicate post-noise: true keeps the group,
/// false or NULL drops it (SQL semantics). Pure post-processing — the
/// noisy aggregates are already published, so this costs no budget.
Result<bool> EvaluateHaving(const Expr& having, const EvalContext& ctx);

}  // namespace aggregate
}  // namespace viewrewrite

#endif  // VIEWREWRITE_AGGREGATE_AGGREGATE_PLANNER_H_
