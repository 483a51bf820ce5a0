#ifndef VIEWREWRITE_VIEW_CELL_EVAL_H_
#define VIEWREWRITE_VIEW_CELL_EVAL_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "sql/ast.h"
#include "sql/value.h"
#include "view/view_def.h"

namespace viewrewrite {

/// Scope for evaluating rewritten (subquery-free) predicates over the
/// cells of one view. Resolve binds an expression's column refs to view
/// dimensions by ViewDef::AttributeIndex and its $params to their bound
/// values once; evaluation then reads each dimension's representative at
/// the current cell (categorical value, bucket midpoint, or NULL for the
/// padding cell) through a plain slot, with no name lookups per cell.
///
/// The scope keeps references to `view`, `params`, every resolved
/// expression and every representative set with SetCell; all must
/// outlive it.
class CellScope {
 public:
  CellScope(const ViewDef& view, const ParamMap& params);

  /// Resolves the column refs and $params `e` reads and appends the view
  /// dimensions it reads to `dims` (ascending, no duplicates). Returns
  /// false if some column ref is not a view attribute; such a ref, like
  /// an unbound $param, fails evaluation with NotFound.
  bool Resolve(const Expr& e, std::vector<size_t>* dims);

  /// Points dimension `dim` at its representative in the current cell.
  void SetCell(size_t dim, const Value* rep) { cell_[dim] = rep; }

 private:
  friend Result<Value> EvalCellExpr(const Expr& e, const CellScope& scope);

  const ViewDef& view_;
  const ParamMap& params_;
  std::vector<std::pair<const Expr*, int>> refs_;  // column ref -> dim or -1
  std::vector<std::pair<const Expr*, const Value*>> bound_;  // $param -> value
  std::vector<const Value*> cell_;  // per dimension, set by SetCell
};

/// Evaluates a resolved predicate at the scope's current cell. Returns
/// SQL three-valued truth collapsed to bool (only TRUE counts the cell).
Result<bool> EvalCellPredicate(const Expr& e, const CellScope& scope);

/// Evaluates a resolved scalar expression at the scope's current cell
/// (NULL-propagating).
Result<Value> EvalCellExpr(const Expr& e, const CellScope& scope);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_CELL_EVAL_H_
