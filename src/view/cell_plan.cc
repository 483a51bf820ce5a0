#include "view/cell_plan.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "sql/printer.h"

namespace viewrewrite {

namespace {

/// Whether comparison `op` holds for a CompareSql result `cmp`.
bool ComparisonHolds(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq: return cmp == 0;
    case BinaryOp::kNe: return cmp != 0;
    case BinaryOp::kLt: return cmp < 0;
    case BinaryOp::kLe: return cmp <= 0;
    case BinaryOp::kGt: return cmp > 0;
    case BinaryOp::kGe: return cmp >= 0;
    default: return false;
  }
}

/// The column side of a comparison a binary search may decide: the column
/// itself, or `COALESCE(column, literal)` with the literal in `fallback`.
bool IsColumnSide(const Expr& e, const Value** fallback) {
  *fallback = nullptr;
  if (e.kind == ExprKind::kColumnRef) return true;
  if (e.kind != ExprKind::kFuncCall) return false;
  const auto& f = static_cast<const FuncCallExpr&>(e);
  if (f.name != "coalesce" || f.args.size() != 2 ||
      f.args[0]->kind != ExprKind::kColumnRef ||
      f.args[1]->kind != ExprKind::kLiteral) {
    return false;
  }
  *fallback = &static_cast<const LiteralExpr&>(*f.args[1]).value;
  return true;
}

/// `value op col` as `col op' value`.
BinaryOp Flip(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

/// The aggregate calls an item or HAVING expression holds, outermost
/// first: the calls answering evaluates (through arithmetic and the
/// arguments of non-aggregate functions, never inside an aggregate).
void CollectAggCalls(const Expr* e, std::vector<const FuncCallExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kFuncCall) {
    const auto* f = static_cast<const FuncCallExpr*>(e);
    if (f->IsAggregate()) {
      out->push_back(f);
      return;
    }
    for (const auto& a : f->args) CollectAggCalls(a.get(), out);
    return;
  }
  if (e->kind == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(e);
    CollectAggCalls(b->left.get(), out);
    CollectAggCalls(b->right.get(), out);
    return;
  }
  if (e->kind == ExprKind::kUnary) {
    CollectAggCalls(static_cast<const UnaryExpr*>(e)->operand.get(), out);
  }
}

std::string ItemColumnName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(*item.expr).column;
  }
  if (item.expr->kind == ExprKind::kFuncCall) {
    return static_cast<const FuncCallExpr&>(*item.expr).name;
  }
  return "expr";
}

template <typename T>
const T* Lookup(const std::vector<std::pair<const Expr*, T>>& table,
                const Expr* node) {
  for (const auto& [n, v] : table) {
    if (n == node) return &v;
  }
  return nullptr;
}

}  // namespace

std::optional<OrderedSelection> SelectOrdered(std::span<const double> keys,
                                              BinaryOp op, const Value& value,
                                              const Value* fallback) {
  if (!value.is_numeric()) return std::nullopt;
  const double x = value.ToDouble();
  if (std::isnan(x)) return std::nullopt;
  // CompareSql orders two numbers by their doubles; with no NaN on either
  // side that is the total order the keys are sorted in.
  const size_t lo = static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), x) - keys.begin());
  const size_t hi = static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), x) - keys.begin());
  OrderedSelection s;
  s.keys = keys.size();
  switch (op) {
    case BinaryOp::kEq: s.begin = lo; s.end = hi; break;
    case BinaryOp::kNe: s.begin = lo; s.end = hi; s.negated = true; break;
    case BinaryOp::kLt: s.begin = 0; s.end = lo; break;
    case BinaryOp::kLe: s.begin = 0; s.end = hi; break;
    case BinaryOp::kGt: s.begin = hi; s.end = keys.size(); break;
    case BinaryOp::kGe: s.begin = lo; s.end = keys.size(); break;
    default: return std::nullopt;
  }
  // A NULL representative compares NULL; through COALESCE it reads the
  // fallback instead.
  if (fallback != nullptr) {
    Result<Value::TriCompare> cmp = fallback->CompareSql(value);
    if (!cmp.ok()) return std::nullopt;
    s.padding = !cmp->is_null && ComparisonHolds(op, cmp->cmp);
  }
  return s;
}

namespace {

/// Writes the indices in [0, size) where every selection holds, in
/// ascending order: for selections that are not negated, one run among
/// the keys, then the NULL padding when every selection admits it.
void Intersect(std::span<const OrderedSelection* const> selections,
               size_t size, std::vector<size_t>* out) {
  out->reserve(size);
  size_t first = 0;
  size_t last = size;
  bool padding = false;
  if (!selections.empty()) {
    last = selections[0]->keys;
    padding = true;
  }
  for (const OrderedSelection* s : selections) {
    first = std::max(first, s->begin);
    last = std::min(last, s->end);
    padding = padding && s->padding;
  }
  for (size_t i = first; i < last; ++i) out->push_back(i);
  if (padding) {
    for (size_t i = selections[0]->keys; i < size; ++i) out->push_back(i);
  }
}

}  // namespace

/// An equality `col = value` appended to the WHERE for one walk: the
/// group (or extremum slice) a per-group answer pins.
struct CellPlan::Pin {
  size_t dim;
  const Value* value;
};

namespace {

/// A comparison `col op value`, the column side possibly `COALESCE(col,
/// literal)`, over an ordered dimension: a binary search decides it
/// whenever the call's value is a number.
struct Atom {
  size_t dim;
  BinaryOp op;                      // the column on the left
  size_t slot = 0;                  // the value: a parameter slot, or
  const Value* literal = nullptr;   // a literal
  const Value* fallback = nullptr;  // COALESCE's literal
};

/// A WHERE conjunct; `atom` indexes Program::atoms when the conjunct is
/// one comparison a binary search may decide.
struct Conjunct {
  const Expr* expr;
  std::vector<size_t> dims;  // ascending
  int atom = -1;

  /// This call's selection of the conjunct, or nullptr when the
  /// interpreter decides it.
  const OrderedSelection* Selection(
      std::span<const std::optional<OrderedSelection>> sel) const {
    if (atom < 0 || !sel[static_cast<size_t>(atom)].has_value()) {
      return nullptr;
    }
    return &*sel[static_cast<size_t>(atom)];
  }
};

/// How one aggregate call is answered, in the order the uncompiled
/// evaluation ran: a static failure (before the measure walk, or after
/// the count walk it needs first), an extremum scan, or a derivation over
/// measure totals.
struct AggStep {
  Status error;
  bool error_after_walk = false;
  aggregate::Derivation derivation = aggregate::Derivation::kCount;
  int count = -1;  // indexes into AggSet::measures
  int sum = -1;
  int sumsq = -1;
  int extremum_dim = -1;
  bool is_max = false;
};

}  // namespace

/// The aggregate calls of one answer form, distinct by canonical SQL.
struct CellPlan::AggSet {
  std::vector<AggStep> steps;
  /// The measure arrays one walk totals for every step.
  std::vector<const double*> measures;
  /// Every collected call node -> its step.
  std::vector<std::pair<const Expr*, size_t>> nodes;
};

struct CellPlan::Program {
  explicit Program(const ViewDef& view) : bindings(view) {}

  // ---- The WHERE. ----------------------------------------------------------
  Status where_error;  // a column ref outside the view
  CellBindings bindings;
  std::vector<const Expr*> constant;
  std::vector<std::vector<Conjunct>> one_dim;  // per dimension
  std::vector<Conjunct> tabled;  // over several dimensions
  std::vector<Atom> atoms;
  const double* count = nullptr;  // the count measure (extremum scans)

  // ---- The scalar answer. ----------------------------------------------------
  Status scalar_error;
  const Expr* item = nullptr;
  AggSet scalar;

  // ---- The grouped answer. ---------------------------------------------------
  Status grouped_error;
  std::vector<size_t> group_dims;
  std::vector<size_t> group_cells;  // value cells per group dimension
  std::vector<std::string> columns;
  std::vector<bool> is_aggregate;
  std::vector<const SelectItem*> items;
  std::vector<int> item_group;  // a column item's group index, or -1
  const Expr* having = nullptr;
  /// The synthetic COUNT(*) backing every row's noisy_count.
  std::unique_ptr<FuncCallExpr> count_star;
  AggSet grouped;
  bool one_pass = false;  // all groups totalled in one walk
  std::vector<std::pair<const Expr*, int>> group_refs;   // -> group index
  std::vector<std::pair<const Expr*, size_t>> param_refs;  // -> slot
};

namespace {

/// Plans each distinct call of `calls` into `set`.
void CompileAggs(const ViewDef& view,
                 const std::map<std::string, std::vector<double>>& cells,
                 const std::vector<const FuncCallExpr*>& calls,
                 std::vector<std::pair<const Expr*, size_t>>* nodes,
                 std::vector<AggStep>* steps,
                 std::vector<const double*>* measures) {
  auto measure = [&](const std::string& key) -> int {
    auto it = cells.find(key);
    if (it == cells.end()) return -1;
    const double* data = it->second.data();
    for (size_t m = 0; m < measures->size(); ++m) {
      if ((*measures)[m] == data) return static_cast<int>(m);
    }
    measures->push_back(data);
    return static_cast<int>(measures->size() - 1);
  };
  std::vector<std::string> keys;
  for (const FuncCallExpr* call : calls) {
    std::string key = ToSql(*call);
    auto it = std::find(keys.begin(), keys.end(), key);
    nodes->emplace_back(call, static_cast<size_t>(it - keys.begin()));
    if (it != keys.end()) continue;  // the same reading
    keys.push_back(std::move(key));
    AggStep& st = steps->emplace_back();
    Result<aggregate::AggregatePlan> plan = aggregate::PlanAggregate(*call);
    if (!plan.ok()) {
      st.error = plan.status();
      continue;
    }
    st.derivation = plan->derivation;
    if (plan->is_extremum) {
      const auto& col = static_cast<const ColumnRefExpr&>(*plan->arg);
      const int dim = view.AttributeIndex(col.table, col.column);
      if (dim < 0) {
        st.error = Status::NotFound("extremum column '" + col.FullName() +
                                    "' is not a view dimension");
      }
      st.extremum_dim = dim;
      st.is_max = call->name == "max";
      continue;
    }
    if (plan->derivation == aggregate::Derivation::kCount ||
        plan->needs_count) {
      st.count = measure("count");
    }
    if (!plan->sum_key.empty() && (st.sum = measure(plan->sum_key)) < 0) {
      st.error = Status::NotFound("view has no measure '" + plan->sum_key +
                                  "'");
      st.error_after_walk = st.count >= 0;
      continue;
    }
    if (!plan->sumsq_key.empty() &&
        (st.sumsq = measure(plan->sumsq_key)) < 0) {
      st.error = Status::NotFound("view has no measure '" + plan->sumsq_key +
                                  "' (needed for " + call->name + ")");
      st.error_after_walk = st.count >= 0 || st.sum >= 0;
    }
  }
}

/// Evaluates the scalar item over the aggregate readings.
Result<double> EvalAggregateExpr(
    const Expr& e, const std::vector<std::pair<const Expr*, size_t>>& nodes,
    const std::vector<double>& readings) {
  if (const size_t* step = Lookup(nodes, &e)) return readings[*step];
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value;
      if (!v.is_numeric()) {
        return Status::TypeMismatch("non-numeric literal in aggregate expr");
      }
      return v.ToDouble();
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      VR_ASSIGN_OR_RETURN(double l, EvalAggregateExpr(*b.left, nodes, readings));
      VR_ASSIGN_OR_RETURN(double r,
                          EvalAggregateExpr(*b.right, nodes, readings));
      switch (b.op) {
        case BinaryOp::kAdd: return l + r;
        case BinaryOp::kSub: return l - r;
        case BinaryOp::kMul: return l * r;
        case BinaryOp::kDiv:
          if (r == 0) return Status::ExecutionError("division by zero");
          return l / r;
        default:
          return Status::Unsupported("operator in aggregate expression");
      }
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op == UnaryOp::kNeg) {
        VR_ASSIGN_OR_RETURN(double v,
                            EvalAggregateExpr(*u.operand, nodes, readings));
        return -v;
      }
      return Status::Unsupported("NOT in aggregate expression");
    }
    default:
      return Status::Unsupported("expression around aggregates");
  }
}

/// `e` as an atom when it compares a column of an ordered dimension (or
/// `COALESCE(column, literal)`) with a parameter or a literal.
std::optional<Atom> CompileAtom(const Expr& e, const Synopsis& s,
                                const std::vector<bool>& ordered,
                                const ParamLayout& layout) {
  if (e.kind != ExprKind::kBinary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(e);
  if (!IsComparisonOp(b.op)) return std::nullopt;
  const Expr* column = b.left.get();
  const Expr* value = b.right.get();
  BinaryOp op = b.op;
  Atom atom{0, op};
  if (!IsColumnSide(*column, &atom.fallback)) {
    std::swap(column, value);
    op = Flip(op);
    if (!IsColumnSide(*column, &atom.fallback)) return std::nullopt;
  }
  const auto& ref = static_cast<const ColumnRefExpr&>(
      column->kind == ExprKind::kColumnRef
          ? *column
          : *static_cast<const FuncCallExpr&>(*column).args[0]);
  const int dim = s.view().AttributeIndex(ref.table, ref.column);
  if (dim < 0 || !ordered[static_cast<size_t>(dim)]) return std::nullopt;
  atom.dim = static_cast<size_t>(dim);
  atom.op = op;
  if (value->kind == ExprKind::kParam) {
    atom.slot = static_cast<size_t>(
        layout.Slot(static_cast<const ParamExpr&>(*value).name));
  } else if (value->kind == ExprKind::kLiteral) {
    atom.literal = &static_cast<const LiteralExpr&>(*value).value;
  } else {
    return std::nullopt;
  }
  return atom;
}

}  // namespace

CellPlan::CellPlan(Status status) : failure_(std::move(status)) {}
CellPlan::~CellPlan() = default;
CellPlan::CellPlan(CellPlan&&) noexcept = default;
CellPlan& CellPlan::operator=(CellPlan&&) noexcept = default;

CellPlan::CellPlan(const Synopsis& s, const SelectStmt& query,
                   ParamLayout* layout)
    : synopsis_(&s), program_(std::make_unique<Program>(s.view())) {
  Program& p = *program_;
  const ViewDef& view = s.view();
  p.count = s.cells_.at("count").data();

  // The WHERE: a conjunct over one dimension filters that dimension's
  // indices, a constant one decides the whole query, and any other gets a
  // truth table over only the dimensions it reads.
  p.one_dim.resize(s.dim_sizes_.size());
  for (const Expr* c : CollectConjuncts(query.where.get())) {
    Conjunct conjunct;
    conjunct.expr = c;
    if (!p.bindings.Resolve(*c, layout, &conjunct.dims)) {
      p.where_error = Status::ExecutionError(
          "query filter references a non-view attribute: " + ToSql(*c));
      break;
    }
    if (conjunct.dims.empty()) {
      p.constant.push_back(c);  // constant / param-only predicate
      continue;
    }
    if (conjunct.dims.size() > 1) {
      p.tabled.push_back(std::move(conjunct));
      continue;
    }
    if (std::optional<Atom> atom = CompileAtom(*c, s, s.ordered_, *layout)) {
      conjunct.atom = static_cast<int>(p.atoms.size());
      p.atoms.push_back(*atom);
    }
    p.one_dim[conjunct.dims[0]].push_back(std::move(conjunct));
  }

  // The scalar answer: one item of aggregate calls and arithmetic.
  if (query.items.size() != 1 || query.items[0].is_star) {
    p.scalar_error = Status::InvalidArgument(
        "synopsis answering expects a single aggregate item");
  } else {
    p.item = query.items[0].expr.get();
    std::vector<const FuncCallExpr*> calls;
    CollectAggCalls(p.item, &calls);
    if (calls.empty()) {
      p.scalar_error = Status::InvalidArgument("query item has no aggregate");
    }
    CompileAggs(view, s.cells_, calls, &p.scalar.nodes, &p.scalar.steps,
                &p.scalar.measures);
  }

  // The grouped answer: group keys resolve to view dimensions, output
  // columns follow the select list.
  if (query.group_by.empty()) {
    p.grouped_error = Status::InvalidArgument("AnswerGrouped requires GROUP BY");
    return;
  }
  for (const ExprPtr& g : query.group_by) {
    if (g->kind != ExprKind::kColumnRef) {
      p.grouped_error =
          Status::Unsupported("GROUP BY over non-column expressions");
      return;
    }
    const auto& ref = static_cast<const ColumnRefExpr&>(*g);
    const int dim = view.AttributeIndex(ref.table, ref.column);
    if (dim < 0) {
      p.grouped_error = Status::NotFound("GROUP BY column '" + ref.FullName() +
                                         "' is not a view attribute");
      return;
    }
    p.group_dims.push_back(static_cast<size_t>(dim));
    // The value cells only: the NULL/other padding cell is not a
    // publishable group key.
    p.group_cells.push_back(static_cast<size_t>(s.dim_sizes_[dim] - 1));
  }
  for (const SelectItem& item : query.items) {
    if (item.is_star || !item.expr) {
      p.grouped_error =
          Status::Unsupported("SELECT * in a grouped synopsis query");
      return;
    }
    p.columns.push_back(ItemColumnName(item));
    p.is_aggregate.push_back(item.expr->kind != ExprKind::kColumnRef);
    p.items.push_back(&item);
    int group = -1;
    if (item.expr->kind == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
      const int dim = view.AttributeIndex(ref.table, ref.column);
      for (size_t gi = 0; gi < p.group_dims.size() && group < 0; ++gi) {
        if (static_cast<int>(p.group_dims[gi]) == dim) {
          group = static_cast<int>(gi);
        }
      }
    }
    p.item_group.push_back(group);
  }
  p.having = query.having.get();

  // The synthetic COUNT(*), then each aggregate call of the select list
  // and HAVING, in order.
  std::vector<ExprPtr> star_args;
  star_args.push_back(std::make_unique<StarExpr>());
  p.count_star = std::make_unique<FuncCallExpr>("count", std::move(star_args));
  std::vector<const FuncCallExpr*> calls{p.count_star.get()};
  for (const SelectItem& item : query.items) {
    CollectAggCalls(item.expr.get(), &calls);
  }
  CollectAggCalls(p.having, &calls);
  CompileAggs(view, s.cells_, calls, &p.grouped.nodes, &p.grouped.steps,
              &p.grouped.measures);

  // One walk totals every group when each group pins exactly one cell
  // and every aggregate is a derivation over published measures; MIN/MAX
  // and any plan or measure failure answer group by group.
  p.one_pass = true;
  for (size_t dim : p.group_dims) p.one_pass &= s.distinct_groups_[dim];
  for (const AggStep& st : p.grouped.steps) {
    p.one_pass &= st.error.ok() && st.extremum_dim < 0;
  }

  // Group-key names as HAVING reads them: bare and qualified, a later
  // GROUP BY column shadowing an earlier one of the same name.
  std::vector<std::pair<std::string, int>> names;
  for (size_t gi = 0; gi < p.group_dims.size(); ++gi) {
    const ViewAttribute& attr = view.attributes()[p.group_dims[gi]];
    names.emplace_back(attr.column, static_cast<int>(gi));
    names.emplace_back(attr.table + "." + attr.column, static_cast<int>(gi));
  }
  auto group_of = [&](const std::string& name) {
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return -1;
  };
  std::function<void(const Expr*)> bind = [&](const Expr* e) {
    if (e == nullptr) return;
    switch (e->kind) {
      case ExprKind::kColumnRef: {
        const auto& ref = static_cast<const ColumnRefExpr&>(*e);
        int g = group_of(ref.FullName());
        if (g < 0) g = group_of(ref.column);
        p.group_refs.emplace_back(e, g);
        return;
      }
      case ExprKind::kParam:
        p.param_refs.emplace_back(
            e, layout->Add(static_cast<const ParamExpr&>(*e).name));
        return;
      case ExprKind::kBinary: {
        const auto* b = static_cast<const BinaryExpr*>(e);
        bind(b->left.get());
        bind(b->right.get());
        return;
      }
      case ExprKind::kUnary:
        bind(static_cast<const UnaryExpr*>(e)->operand.get());
        return;
      default:
        return;  // aggregate calls are readings; nothing else evaluates
    }
  };
  for (const SelectItem* item : p.items) bind(item->expr.get());
  bind(p.having);
}

std::vector<std::optional<OrderedSelection>> CellPlan::Select(
    ParamValues params) const {
  const Program& p = *program_;
  std::vector<std::optional<OrderedSelection>> selected(p.atoms.size());
  for (size_t i = 0; i < p.atoms.size(); ++i) {
    const Atom& a = p.atoms[i];
    const Value* value = a.literal;
    if (value == nullptr && a.slot < params.size()) value = params[a.slot];
    if (value != nullptr) {
      selected[i] = SelectOrdered(synopsis_->ordered_keys_[a.dim], a.op,
                                  *value, a.fallback);
    }
  }
  return selected;
}

Status CellPlan::Allow(size_t d, ParamValues params, std::span<const Pin> pins,
                       std::span<const std::optional<OrderedSelection>> selected,
                       const Value** reps, std::vector<size_t>* allowed) const {
  const Program& p = *program_;
  const std::vector<Value>& dim_reps = synopsis_->reps_[d];
  const std::vector<Conjunct>& conjuncts = p.one_dim[d];
  const bool pinned = std::any_of(pins.begin(), pins.end(),
                                  [&](const Pin& pin) { return pin.dim == d; });
  allowed->clear();
  // Leading decided comparisons other than `<>` narrow the candidates to
  // one index run, without visiting a representative; the other conjuncts
  // run in order at each candidate, so every interpreted evaluation
  // happens exactly where it would without the narrowing.
  constexpr size_t kLeading = 8;
  const OrderedSelection* leading[kLeading];
  size_t open = 0;
  for (; open < conjuncts.size() && open < kLeading; ++open) {
    const OrderedSelection* sel = conjuncts[open].Selection(selected);
    if (sel == nullptr || sel->negated) break;
    leading[open] = sel;
  }
  Intersect(std::span(leading, open), dim_reps.size(), allowed);
  if (open == conjuncts.size() && !pinned) return Status::OK();
  const CellFrame frame{&p.bindings, params, reps};
  size_t kept = 0;
  for (size_t idx : *allowed) {
    reps[d] = &dim_reps[idx];
    bool pass = true;
    for (size_t j = open; j < conjuncts.size() && pass; ++j) {
      if (const OrderedSelection* sel = conjuncts[j].Selection(selected)) {
        pass = sel->Contains(idx);
      } else {
        VR_ASSIGN_OR_RETURN(pass,
                            EvalCellPredicate(*conjuncts[j].expr, frame));
      }
    }
    for (size_t k = 0; k < pins.size() && pass; ++k) {
      if (pins[k].dim != d) continue;
      VR_ASSIGN_OR_RETURN(Value::TriCompare cmp,
                          dim_reps[idx].CompareSql(*pins[k].value));
      pass = !cmp.is_null && cmp.cmp == 0;
    }
    if (pass) (*allowed)[kept++] = idx;
  }
  allowed->resize(kept);
  return Status::OK();
}

template <typename Visit>
Status CellPlan::Walk(ParamValues params, std::span<const Pin> pins,
                      int target, Visit&& visit) const {
  const Program& p = *program_;
  if (!p.where_error.ok()) return p.where_error;
  const Synopsis& s = *synopsis_;
  const size_t n = s.dim_sizes_.size();
  // The current cell: a representative (what the interpreter reads) and
  // an index (what the visitor reads) per dimension.
  std::vector<const Value*> reps(n, nullptr);
  std::vector<size_t> cell(n, 0);
  const CellFrame frame{&p.bindings, params, reps.data()};

  // Constant predicates can rule out every cell (e.g. `$v >= 1`).
  for (const Expr* c : p.constant) {
    VR_ASSIGN_OR_RETURN(bool pass, EvalCellPredicate(*c, frame));
    if (!pass) return Status::OK();
  }

  // Allowed indices per dimension; the target dimension of an extremum
  // scan drops its padding cell, which is no slice.
  const std::vector<std::optional<OrderedSelection>> selected = Select(params);
  std::vector<std::vector<size_t>> allowed(n);
  bool none = false;
  for (size_t d = 0; d < n; ++d) {
    VR_RETURN_NOT_OK(
        Allow(d, params, pins, selected, reps.data(), &allowed[d]));
    if (static_cast<int>(d) == target) {
      const size_t cells = static_cast<size_t>(s.dim_sizes_[d] - 1);
      while (!allowed[d].empty() && allowed[d].back() >= cells) {
        allowed[d].pop_back();
      }
    }
    none = none || allowed[d].empty();
  }
  if (none) return Status::OK();
  if (n == 0) {
    visit(size_t{0}, static_cast<const size_t*>(nullptr));
    return Status::OK();
  }

  std::vector<size_t> flat_strides(n);
  size_t stride = 1;
  for (size_t d = n; d-- > 0;) {
    flat_strides[d] = stride;
    stride *= static_cast<size_t>(s.dim_sizes_[d]);
  }
  // Odometer over the allowed cells, last dimension fastest: the cells
  // are visited in flat-index order.
  std::vector<size_t> pos(n, 0);
  for (size_t d = 0; d < n; ++d) {
    cell[d] = allowed[d][0];
    reps[d] = &s.reps_[d][cell[d]];
  }
  const size_t last = n - 1;
  // Steps the dimensions before the last to the next allowed combination;
  // false once every combination was visited.
  auto advance = [&] {
    for (size_t d = last; d > 0; --d) {
      const size_t k = d - 1;
      if (++pos[k] == allowed[k].size()) pos[k] = 0;
      cell[k] = allowed[k][pos[k]];
      reps[k] = &s.reps_[k][cell[k]];
      if (pos[k] != 0) return true;
    }
    return false;
  };

  // Truth tables over allowed positions, filled when the walk first
  // reaches an entry, so an evaluation error surfaces at the same cell
  // and conjunct as when every conjunct is evaluated per cell.
  struct Table {
    std::vector<size_t> strides;  // per dims entry, over allowed positions
    std::vector<int8_t> truth;    // -1 until evaluated
    size_t base = 0;  // the entry offset of the slower dimensions
    size_t step = 0;  // the stride along the last dimension, or 0
  };
  std::vector<Table> tables(p.tabled.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    const std::vector<size_t>& dims = p.tabled[i].dims;
    size_t entries = 1;
    tables[i].strides.resize(dims.size());
    for (size_t k = dims.size(); k-- > 0;) {
      tables[i].strides[k] = entries;
      entries *= allowed[dims[k]].size();
    }
    tables[i].truth.assign(entries, -1);
    if (dims.back() == last) tables[i].step = tables[i].strides.back();
  }
  const bool reads_last = std::any_of(tables.begin(), tables.end(),
                                      [](const Table& t) { return t.step > 0; });
  // The slower dimensions step as an odometer; the last one runs as a
  // tight inner loop.
  const std::vector<size_t>& inner = allowed[last];
  do {
    size_t base = 0;
    for (size_t d = 0; d < last; ++d) base += cell[d] * flat_strides[d];
    if (tables.empty()) {
      for (size_t idx : inner) {
        cell[last] = idx;
        visit(base + idx, cell.data());
      }
      continue;
    }
    for (size_t i = 0; i < tables.size(); ++i) {
      const std::vector<size_t>& dims = p.tabled[i].dims;
      tables[i].base = 0;
      for (size_t k = 0; k < dims.size(); ++k) {
        if (dims[k] != last) {
          tables[i].base += pos[dims[k]] * tables[i].strides[k];
        }
      }
    }
    // Whether the cell at inner position q passes every table.
    auto passes = [&](size_t q) -> Result<bool> {
      cell[last] = inner[q];
      for (size_t i = 0; i < tables.size(); ++i) {
        Table& t = tables[i];
        int8_t& truth = t.truth[t.base + q * t.step];
        if (truth < 0) {
          reps[last] = &s.reps_[last][inner[q]];
          VR_ASSIGN_OR_RETURN(bool holds,
                              EvalCellPredicate(*p.tabled[i].expr, frame));
          truth = holds ? 1 : 0;
        }
        if (truth == 0) return false;
      }
      return true;
    };
    if (!reads_last) {
      // No table reads the last dimension: the first cell's verdict holds
      // for the whole run.
      VR_ASSIGN_OR_RETURN(bool pass, passes(0));
      if (!pass) continue;
      for (size_t idx : inner) {
        cell[last] = idx;
        visit(base + idx, cell.data());
      }
      continue;
    }
    for (size_t q = 0; q < inner.size(); ++q) {
      VR_ASSIGN_OR_RETURN(bool pass, passes(q));
      if (pass) visit(base + inner[q], cell.data());
    }
  } while (advance());
  return Status::OK();
}

Result<double> CellPlan::Extremum(size_t dim, bool is_max, ParamValues params,
                                  std::span<const Pin> pins) const {
  const Synopsis& s = *synopsis_;
  const std::vector<Value>& reps = s.reps_[dim];
  const size_t cells = static_cast<size_t>(s.dim_sizes_[dim] - 1);
  const double* count = program_->count;

  // Count of qualifying rows in each slice of the target dimension (WHERE
  // applied); the extremum is the outermost slice whose count clears the
  // noise floor.
  std::vector<double> counts(cells, 0.0);
  if (cells > 0 && s.distinct_groups_[dim]) {
    // Each slice is one cell index: one walk adds every slice's cells in
    // flat-index order, the order its own pinned walk would add them.
    VR_RETURN_NOT_OK(Walk(params, pins, static_cast<int>(dim),
                          [&](size_t flat, const size_t* cell) {
                            counts[cell[dim]] += count[flat];
                          }));
  } else if (cells > 0) {
    // Representatives that compare equal share a slice: pin each one.
    std::vector<Pin> pinned(pins.begin(), pins.end());
    pinned.push_back({dim, nullptr});
    for (size_t idx = 0; idx < cells; ++idx) {
      pinned.back().value = &reps[idx];
      double total = 0;
      VR_RETURN_NOT_OK(Walk(params, pinned, -1,
                            [&](size_t flat, const size_t*) {
                              total += count[flat];
                            }));
      counts[idx] = total;
    }
  }
  if (is_max) {
    for (size_t idx = cells; idx-- > 0;) {
      if (counts[idx] > s.extremum_floor_) return reps[idx].ToDouble();
    }
  } else {
    for (size_t idx = 0; idx < cells; ++idx) {
      if (counts[idx] > s.extremum_floor_) return reps[idx].ToDouble();
    }
  }
  // Nothing cleared the noise floor (tiny budgets or an empty selection):
  // fall back to the most plausible slice so answering degrades gracefully
  // instead of failing.
  size_t best = 0;
  for (size_t idx = 1; idx < cells; ++idx) {
    if (counts[idx] > counts[best]) best = idx;
  }
  return reps[best].ToDouble();
}

Result<std::vector<double>> CellPlan::Readings(const AggSet& set,
                                               ParamValues params,
                                               std::span<const Pin> pins) const {
  // Every derivation reads its measures from one shared walk, run where
  // the first of them needs it.
  std::vector<double> totals(set.measures.size(), 0.0);
  bool walked = false;
  auto walk = [&]() -> Status {
    if (walked) return Status::OK();
    walked = true;
    const size_t m = set.measures.size();
    const double* const* measures = set.measures.data();
    double* t = totals.data();
    return Walk(params, pins, -1, [&](size_t flat, const size_t*) {
      for (size_t j = 0; j < m; ++j) t[j] += measures[j][flat];
    });
  };
  std::vector<double> out(set.steps.size());
  for (size_t i = 0; i < set.steps.size(); ++i) {
    const AggStep& st = set.steps[i];
    if (!st.error.ok()) {
      if (st.error_after_walk) VR_RETURN_NOT_OK(walk());
      return st.error;
    }
    if (st.extremum_dim >= 0) {
      VR_ASSIGN_OR_RETURN(out[i],
                          Extremum(static_cast<size_t>(st.extremum_dim),
                                   st.is_max, params, pins));
      continue;
    }
    VR_RETURN_NOT_OK(walk());
    out[i] = aggregate::EvaluateDerived(
        st.derivation, st.count < 0 ? 0 : totals[st.count],
        st.sum < 0 ? 0 : totals[st.sum], st.sumsq < 0 ? 0 : totals[st.sumsq]);
  }
  return out;
}

Result<double> CellPlan::AnswerScalar(ParamValues params) const {
  if (!failure_.ok()) return failure_;
  const Program& p = *program_;
  if (!p.scalar_error.ok()) return p.scalar_error;
  VR_ASSIGN_OR_RETURN(std::vector<double> readings,
                      Readings(p.scalar, params, {}));
  return EvalAggregateExpr(*p.item, p.scalar.nodes, readings);
}

/// One group's row context: its readings, its key values and the call's
/// parameters, each found by the node the plan resolved it for.
class CellPlan::RowContext : public aggregate::EvalContext {
 public:
  RowContext(const CellPlan& plan, ParamValues params, const size_t* combo,
             const double* readings)
      : plan_(plan), params_(params), combo_(combo), readings_(readings) {}

  std::optional<double> Aggregate(const FuncCallExpr& call) const override {
    const size_t* step = Lookup(plan_.program_->grouped.nodes, &call);
    if (step == nullptr) return std::nullopt;
    return readings_[*step];
  }
  const Value* Column(const ColumnRefExpr& ref) const override {
    const int* g = Lookup(plan_.program_->group_refs, &ref);
    if (g == nullptr || *g < 0) return nullptr;
    return GroupKey(static_cast<size_t>(*g));
  }
  const Value* Param(const ParamExpr& param) const override {
    const size_t* slot = Lookup(plan_.program_->param_refs, &param);
    if (slot == nullptr || *slot >= params_.size()) return nullptr;
    return params_[*slot];
  }

  const Value* GroupKey(size_t g) const {
    const size_t dim = plan_.program_->group_dims[g];
    return &plan_.synopsis_->reps_[dim][combo_[g]];
  }

 private:
  const CellPlan& plan_;
  ParamValues params_;
  const size_t* combo_;
  const double* readings_;
};

Result<aggregate::GroupedData> CellPlan::AnswerGrouped(
    ParamValues params) const {
  if (!failure_.ok()) return failure_;
  const Program& p = *program_;
  if (!p.grouped_error.ok()) return p.grouped_error;
  aggregate::GroupedData data;
  data.columns = p.columns;
  data.is_aggregate = p.is_aggregate;

  // One output row per group from its readings (grouped.steps order).
  auto emit_row = [&](const size_t* combo, const double* readings) -> Status {
    const RowContext ctx(*this, params, combo, readings);
    // Post-noise HAVING: the aggregates are already published noisy
    // values, so filtering on them is pure post-processing.
    if (p.having != nullptr) {
      VR_ASSIGN_OR_RETURN(bool keep, aggregate::EvaluateHaving(*p.having, ctx));
      if (!keep) return Status::OK();
    }
    aggregate::GroupedRow row;
    row.noisy_count = readings[0];
    for (size_t i = 0; i < p.items.size(); ++i) {
      const Expr& e = *p.items[i]->expr;
      if (e.kind == ExprKind::kColumnRef) {
        if (p.item_group[i] < 0) {
          return Status::InvalidArgument(
              "non-grouped column '" +
              static_cast<const ColumnRefExpr&>(e).FullName() +
              "' in grouped select list");
        }
        row.values.push_back(
            *ctx.GroupKey(static_cast<size_t>(p.item_group[i])));
        continue;
      }
      VR_ASSIGN_OR_RETURN(Value v, aggregate::EvalExpr(e, ctx));
      if (!v.is_numeric()) {
        return Status::TypeMismatch(
            "grouped aggregate item did not evaluate to a number");
      }
      row.values.push_back(Value::Double(v.ToDouble()));
    }
    data.rows.push_back(std::move(row));
    return Status::OK();
  };

  // Groups: the value cells of each group dimension, row-major in GROUP
  // BY order.
  const size_t keys = p.group_dims.size();
  size_t num_groups = 1;
  std::vector<size_t> group_strides(keys);
  for (size_t k = keys; k-- > 0;) {
    group_strides[k] = num_groups;
    num_groups *= p.group_cells[k];
  }
  if (num_groups == 0) return data;
  std::vector<size_t> combo(keys, 0);
  auto set_combo = [&](size_t g) {
    for (size_t k = keys; k-- > 0;) {
      combo[k] = g % p.group_cells[k];
      g /= p.group_cells[k];
    }
  };
  const size_t aggs = p.grouped.steps.size();

  if (p.one_pass) {
    // Every admitted cell adds into its group's totals. Cells are visited
    // in flat-index order, so each group's totals add the same values in
    // the same order as its own pinned walk: the sums are bit-identical.
    const size_t m = p.grouped.measures.size();
    const double* const* measures = p.grouped.measures.data();
    std::vector<double> totals(num_groups * m, 0.0);
    VR_RETURN_NOT_OK(Walk(params, {}, -1, [&](size_t flat, const size_t* cell) {
      size_t g = 0;
      for (size_t k = 0; k < keys; ++k) {
        const size_t idx = cell[p.group_dims[k]];
        if (idx >= p.group_cells[k]) return;  // the padding cell
        g += idx * group_strides[k];
      }
      double* t = totals.data() + g * m;
      for (size_t j = 0; j < m; ++j) t[j] += measures[j][flat];
    }));
    std::vector<double> readings(aggs);
    for (size_t g = 0; g < num_groups; ++g) {
      const double* t = totals.data() + g * m;
      for (size_t a = 0; a < aggs; ++a) {
        const AggStep& st = p.grouped.steps[a];
        readings[a] = aggregate::EvaluateDerived(
            st.derivation, st.count < 0 ? 0 : t[st.count],
            st.sum < 0 ? 0 : t[st.sum], st.sumsq < 0 ? 0 : t[st.sumsq]);
      }
      set_combo(g);
      VR_RETURN_NOT_OK(emit_row(combo.data(), readings.data()));
    }
    return data;
  }

  // Group by group, for what one pass answers differently: each group's
  // slice pins the group dimensions to its key.
  std::vector<Pin> pins(keys);
  for (size_t g = 0; g < num_groups; ++g) {
    set_combo(g);
    for (size_t k = 0; k < keys; ++k) {
      pins[k] = {p.group_dims[k], &synopsis_->reps_[p.group_dims[k]][combo[k]]};
    }
    VR_ASSIGN_OR_RETURN(std::vector<double> readings,
                        Readings(p.grouped, params, pins));
    VR_RETURN_NOT_OK(emit_row(combo.data(), readings.data()));
  }
  return data;
}

}  // namespace viewrewrite
