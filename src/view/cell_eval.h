#ifndef VIEWREWRITE_VIEW_CELL_EVAL_H_
#define VIEWREWRITE_VIEW_CELL_EVAL_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "sql/ast.h"
#include "sql/value.h"
#include "view/view_def.h"

namespace viewrewrite {

/// Names the $parameters a compiled cell program reads, one slot each. A
/// call supplies one value per slot (ParamValues), so no name is looked up
/// while answering.
class ParamLayout {
 public:
  /// Slot of `$name`, or -1.
  int Slot(std::string_view name) const;
  /// Slot of `$name`, appended when new.
  size_t Add(std::string_view name);

  size_t size() const { return names_.size(); }
  const std::string& name(size_t slot) const { return names_[slot]; }

 private:
  std::vector<std::string> names_;
};

/// One value per ParamLayout slot; nullptr leaves that parameter unbound.
using ParamValues = std::span<const Value* const>;

/// One value per slot of `layout`, each looked up by name in `params`
/// (nullptr where the map has none). `params` must outlive the values.
std::vector<const Value*> BindByName(const ParamLayout& layout,
                                     const ParamMap& params);

struct CellFrame;

/// The leaves of resolved (subquery-free) cell predicates, bound once:
/// each column ref to a view dimension by ViewDef::AttributeIndex and each
/// $param to a ParamLayout slot. Immutable after resolution, so one
/// binding serves any number of concurrent evaluations.
class CellBindings {
 public:
  explicit CellBindings(const ViewDef& view) : view_(&view) {}

  /// Resolves the column refs and $params `e` reads, appending any new
  /// parameter name to `layout`, and appends the view dimensions `e` reads
  /// to `dims` (ascending, no duplicates). Returns false if some column ref
  /// is not a view attribute; such a ref, like an unbound $param, fails
  /// evaluation with NotFound.
  bool Resolve(const Expr& e, ParamLayout* layout, std::vector<size_t>* dims);

 private:
  friend Result<Value> EvalCellExpr(const Expr& e, const CellFrame& frame);

  const ViewDef* view_;
  std::vector<std::pair<const Expr*, int>> refs_;    // column ref -> dim or -1
  std::vector<std::pair<const Expr*, size_t>> params_;  // $param -> slot
};

/// What one evaluation reads: the bindings, the call's parameter values
/// and, per dimension, the representative of the current cell
/// (categorical value, bucket midpoint, or NULL for the padding cell).
/// Every pointer must outlive the evaluation.
struct CellFrame {
  const CellBindings* bindings = nullptr;
  ParamValues params;
  const Value* const* cell = nullptr;
};

/// Evaluates a resolved predicate at the frame's cell. Returns SQL
/// three-valued truth collapsed to bool (only TRUE counts the cell).
Result<bool> EvalCellPredicate(const Expr& e, const CellFrame& frame);

/// Evaluates a resolved scalar expression at the frame's cell
/// (NULL-propagating).
Result<Value> EvalCellExpr(const Expr& e, const CellFrame& frame);

/// The same evaluator with $params named by a ParamMap, for one-off
/// evaluation (and as the reference the cell-program tests check the
/// compiled plans against). The scope keeps references to `params`,
/// every resolved expression and every representative set with SetCell;
/// all must outlive it.
class CellScope {
 public:
  CellScope(const ViewDef& view, const ParamMap& params);

  /// As CellBindings::Resolve, against the scope's parameters.
  bool Resolve(const Expr& e, std::vector<size_t>* dims);

  /// Points dimension `dim` at its representative in the current cell.
  void SetCell(size_t dim, const Value* rep) { cell_[dim] = rep; }

  CellFrame frame() const;

 private:
  ParamLayout layout_;
  CellBindings bindings_;
  std::vector<const Value*> values_;  // per layout slot
  std::vector<const Value*> cell_;    // per dimension, set by SetCell
};

inline Result<bool> EvalCellPredicate(const Expr& e, const CellScope& scope) {
  return EvalCellPredicate(e, scope.frame());
}
inline Result<Value> EvalCellExpr(const Expr& e, const CellScope& scope) {
  return EvalCellExpr(e, scope.frame());
}

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_CELL_EVAL_H_
