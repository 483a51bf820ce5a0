#ifndef VIEWREWRITE_VIEW_CELL_PLAN_H_
#define VIEWREWRITE_VIEW_CELL_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aggregate/aggregate_planner.h"
#include "aggregate/grouped_result.h"
#include "common/result.h"
#include "sql/ast.h"
#include "sql/value.h"
#include "view/cell_eval.h"
#include "view/synopsis.h"

namespace viewrewrite {

/// The representatives of a dimension where `rep op value` is TRUE, for a
/// comparison a binary search over its ordered keys decides
/// (SelectOrdered).
struct OrderedSelection {
  size_t begin = 0;
  size_t end = 0;
  bool negated = false;  // `<>`: every key outside [begin, end)
  size_t keys = 0;       // representatives past the keys are NULL
  bool padding = false;  // whether those NULL representatives hold

  bool Contains(size_t idx) const {
    if (idx >= keys) return padding;
    return (idx >= begin && idx < end) != negated;
  }
};

/// Selects, by binary search over `keys` (the non-decreasing, NaN-free
/// numeric keys of a dimension's leading representatives, every later
/// representative NULL), the representatives where `rep op value` is
/// TRUE, exactly as the cell interpreter decides it; with `fallback`, the
/// column side is `COALESCE(rep, *fallback)`. nullopt when only the
/// interpreter can decide: `value` NULL, non-numeric or NaN, or a
/// fallback that does not compare with it.
std::optional<OrderedSelection> SelectOrdered(std::span<const double> keys,
                                              BinaryOp op, const Value& value,
                                              const Value* fallback = nullptr);

/// A bound cell query compiled once against one Synopsis: the WHERE as a
/// cell program (each column ref's dimension, each $param's slot, the
/// constant, one-dimension and tabled conjunct groups), each aggregate's
/// measure arrays and derivation, the scalar item and, for a GROUP BY
/// query, the grouped output. Answering then does only the work that
/// depends on the parameter values:
///  - each dimension's allowed indices. A comparison `col op $k` (or
///    `COALESCE(col, literal) op $k`) over an ordered dimension is
///    decided by a binary search whenever the value is a number; every
///    other conjunct runs through the cell interpreter;
///  - one walk over the allowed cells in flat-index order, truth tables
///    for the conjuncts that read several dimensions filled on first
///    reach, so every sum is the same, bit for bit, and every error the
///    same, as evaluating the whole WHERE at every cell.
///
/// Compilation never fails: what would fail an answer (an attribute or
/// measure the view lacks, an unsupported aggregate) is recorded and
/// returned by the answer in the order the uncompiled evaluation reached
/// it. A plan is immutable and its answers keep all per-call scratch
/// local, so any number of threads may answer from one plan. It borrows
/// the synopsis and the query's AST, which must outlive it.
class CellPlan {
 public:
  /// Compiles `query` against `synopsis`, resolving its $params to slots
  /// of `layout` (names it lacks are appended).
  CellPlan(const Synopsis& synopsis, const SelectStmt& query,
           ParamLayout* layout);
  /// A plan whose every answer fails with `status` (e.g. a view with no
  /// published synopsis).
  explicit CellPlan(Status status);
  ~CellPlan();
  CellPlan(CellPlan&&) noexcept;
  CellPlan& operator=(CellPlan&&) noexcept;

  /// The scalar answer: a single select item of aggregate calls and
  /// arithmetic. COUNT, SUM(expr) (for registered measure expressions),
  /// AVG/VARIANCE/STDDEV per the planner, and MIN/MAX(col) estimated from
  /// the count histogram over col's dimension.
  Result<double> AnswerScalar(ParamValues params) const;

  /// The grouped answer (GROUP BY over view attributes): one row per group
  /// cell, keyed by the cell representative, with each aggregate per
  /// group, derived aggregates combined per the planner and HAVING
  /// evaluated over the per-group aggregates. Every row carries the
  /// group's count for the serve layer's suppression rule.
  Result<aggregate::GroupedData> AnswerGrouped(ParamValues params) const;

 private:
  struct Program;
  struct Pin;
  struct AggSet;
  class RowContext;

  /// This call's binary-search selection of every comparison the plan
  /// may decide without the interpreter (nullopt: it may not).
  std::vector<std::optional<OrderedSelection>> Select(ParamValues params) const;

  template <typename Visit>
  Status Walk(ParamValues params, std::span<const Pin> pins, int target,
              Visit&& visit) const;
  Status Allow(size_t d, ParamValues params, std::span<const Pin> pins,
               std::span<const std::optional<OrderedSelection>> selected,
               const Value** reps, std::vector<size_t>* allowed) const;
  Result<std::vector<double>> Readings(const AggSet& set, ParamValues params,
                                       std::span<const Pin> pins) const;
  Result<double> Extremum(size_t dim, bool is_max, ParamValues params,
                          std::span<const Pin> pins) const;

  Status failure_;  // every answer fails with it
  const Synopsis* synopsis_ = nullptr;
  std::unique_ptr<Program> program_;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_CELL_PLAN_H_
