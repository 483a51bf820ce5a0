#include "rewrite/rewriter.h"

#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/fault_injection.h"
#include "rewrite/analysis.h"
#include "rewrite/dnf.h"
#include "sql/printer.h"

namespace viewrewrite {

namespace {

constexpr double kPlusInfinity = 1e18;
constexpr double kMinusInfinity = -1e18;

// ---------------------------------------------------------------------------
// Small AST utilities
// ---------------------------------------------------------------------------

bool HasOr(const Expr* e) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case ExprKind::kBinary: {
      const auto* b = static_cast<const BinaryExpr*>(e);
      if (b->op == BinaryOp::kOr) return true;
      return HasOr(b->left.get()) || HasOr(b->right.get());
    }
    case ExprKind::kUnary:
      return HasOr(static_cast<const UnaryExpr*>(e)->operand.get());
    case ExprKind::kFuncCall: {
      const auto* f = static_cast<const FuncCallExpr*>(e);
      for (const auto& a : f->args) {
        if (HasOr(a.get())) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

bool ExprContainsAggregate(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::kFuncCall) {
    const auto* f = static_cast<const FuncCallExpr*>(e);
    if (f->IsAggregate()) return true;
    for (const auto& a : f->args) {
      if (ExprContainsAggregate(a.get())) return true;
    }
    return false;
  }
  if (e->kind == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(e);
    return ExprContainsAggregate(b->left.get()) ||
           ExprContainsAggregate(b->right.get());
  }
  if (e->kind == ExprKind::kUnary) {
    return ExprContainsAggregate(
        static_cast<const UnaryExpr*>(e)->operand.get());
  }
  return false;
}

bool IsBareCount(const Expr& e) {
  return e.kind == ExprKind::kFuncCall &&
         static_cast<const FuncCallExpr&>(e).name == "count";
}

/// Collects aggregate calls in `e` without entering subqueries.
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

/// Clones `e`, substituting any node whose canonical SQL matches a key of
/// `subst` with a fresh column reference.
ExprPtr CloneWithSubstitution(
    const Expr& e,
    const std::map<std::string, std::pair<std::string, std::string>>& subst) {
  auto it = subst.find(ToSql(e));
  if (it != subst.end()) {
    return MakeColumnRef(it->second.first, it->second.second);
  }
  switch (e.kind) {
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return MakeBinary(b.op, CloneWithSubstitution(*b.left, subst),
                        CloneWithSubstitution(*b.right, subst));
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      return std::make_unique<UnaryExpr>(
          u.op, CloneWithSubstitution(*u.operand, subst));
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(e);
      std::vector<ExprPtr> args;
      args.reserve(f.args.size());
      for (const auto& a : f.args) {
        args.push_back(CloneWithSubstitution(*a, subst));
      }
      return std::make_unique<FuncCallExpr>(f.name, std::move(args),
                                            f.distinct);
    }
    default:
      return e.Clone();
  }
}

/// In-place remap of column references `old_alias.old_col` ->
/// `new_alias.new_col` across an expression tree (shallow; post-unnesting
/// trees contain no subqueries).
struct AliasRemap {
  std::string new_alias;
  std::map<std::string, std::string> column_map;  // old name -> new name
};

void RemapRefs(Expr* e, const std::map<std::string, AliasRemap>& remaps) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::kColumnRef: {
      auto* c = static_cast<ColumnRefExpr*>(e);
      auto it = remaps.find(c->table);
      if (it != remaps.end()) {
        auto col_it = it->second.column_map.find(c->column);
        if (col_it != it->second.column_map.end()) {
          c->table = it->second.new_alias;
          c->column = col_it->second;
        }
      }
      return;
    }
    case ExprKind::kBinary: {
      auto* b = static_cast<BinaryExpr*>(e);
      RemapRefs(b->left.get(), remaps);
      RemapRefs(b->right.get(), remaps);
      return;
    }
    case ExprKind::kUnary:
      RemapRefs(static_cast<UnaryExpr*>(e)->operand.get(), remaps);
      return;
    case ExprKind::kFuncCall: {
      auto* f = static_cast<FuncCallExpr*>(e);
      for (auto& a : f->args) RemapRefs(a.get(), remaps);
      return;
    }
    case ExprKind::kIn: {
      auto* in = static_cast<InExpr*>(e);
      RemapRefs(in->lhs.get(), remaps);
      for (auto& v : in->value_list) RemapRefs(v.get(), remaps);
      return;
    }
    case ExprKind::kQuantifiedCmp:
      RemapRefs(static_cast<QuantifiedCmpExpr*>(e)->lhs.get(), remaps);
      return;
    default:
      return;
  }
}

void RemapRefsInStmt(SelectStmt* stmt,
                     const std::map<std::string, AliasRemap>& remaps);

void RemapRefsInTableRef(TableRef* ref,
                         const std::map<std::string, AliasRemap>& remaps) {
  if (ref->kind == TableRefKind::kJoin) {
    auto* j = static_cast<JoinTableRef*>(ref);
    RemapRefsInTableRef(j->left.get(), remaps);
    RemapRefsInTableRef(j->right.get(), remaps);
    RemapRefs(j->condition.get(), remaps);
  }
  // Derived-table bodies reference their own scope; no remap inside.
}

void RemapRefsInStmt(SelectStmt* stmt,
                     const std::map<std::string, AliasRemap>& remaps) {
  for (auto& item : stmt->items) RemapRefs(item.expr.get(), remaps);
  for (auto& f : stmt->from) RemapRefsInTableRef(f.get(), remaps);
  RemapRefs(stmt->where.get(), remaps);
  for (auto& g : stmt->group_by) RemapRefs(g.get(), remaps);
  RemapRefs(stmt->having.get(), remaps);
}

// ---------------------------------------------------------------------------
// Rule 8: WITH inlining
// ---------------------------------------------------------------------------

using WithDefs = std::map<std::string, const SelectStmt*>;

void InlineWithInStmt(SelectStmt* stmt, const WithDefs& defs);

void InlineWithInTableRef(TableRefPtr* ref, const WithDefs& defs) {
  switch ((*ref)->kind) {
    case TableRefKind::kBase: {
      auto* base = static_cast<BaseTableRef*>(ref->get());
      auto it = defs.find(base->name);
      if (it != defs.end()) {
        std::string alias = base->BindingName();
        SelectStmtPtr body = it->second->Clone();
        InlineWithInStmt(body.get(), defs);  // WITH bodies may use earlier CTEs
        *ref = std::make_unique<DerivedTableRef>(std::move(body),
                                                 std::move(alias));
      }
      return;
    }
    case TableRefKind::kDerived: {
      auto* d = static_cast<DerivedTableRef*>(ref->get());
      InlineWithInStmt(d->subquery.get(), defs);
      return;
    }
    case TableRefKind::kJoin: {
      auto* j = static_cast<JoinTableRef*>(ref->get());
      InlineWithInTableRef(&j->left, defs);
      InlineWithInTableRef(&j->right, defs);
      return;
    }
  }
}

void InlineWithInExpr(Expr* e, const WithDefs& defs) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::kScalarSubquery:
      InlineWithInStmt(static_cast<ScalarSubqueryExpr*>(e)->subquery.get(),
                       defs);
      return;
    case ExprKind::kExists:
      InlineWithInStmt(static_cast<ExistsExpr*>(e)->subquery.get(), defs);
      return;
    case ExprKind::kIn: {
      auto* in = static_cast<InExpr*>(e);
      InlineWithInExpr(in->lhs.get(), defs);
      if (in->subquery) InlineWithInStmt(in->subquery.get(), defs);
      for (auto& v : in->value_list) InlineWithInExpr(v.get(), defs);
      return;
    }
    case ExprKind::kQuantifiedCmp: {
      auto* q = static_cast<QuantifiedCmpExpr*>(e);
      InlineWithInExpr(q->lhs.get(), defs);
      InlineWithInStmt(q->subquery.get(), defs);
      return;
    }
    case ExprKind::kBinary: {
      auto* b = static_cast<BinaryExpr*>(e);
      InlineWithInExpr(b->left.get(), defs);
      InlineWithInExpr(b->right.get(), defs);
      return;
    }
    case ExprKind::kUnary:
      InlineWithInExpr(static_cast<UnaryExpr*>(e)->operand.get(), defs);
      return;
    case ExprKind::kFuncCall: {
      auto* f = static_cast<FuncCallExpr*>(e);
      for (auto& a : f->args) InlineWithInExpr(a.get(), defs);
      return;
    }
    default:
      return;
  }
}

void InlineWithInStmt(SelectStmt* stmt, const WithDefs& outer_defs) {
  WithDefs defs = outer_defs;
  // Later WITH items may reference earlier ones; collect incrementally.
  std::vector<WithItem> own = std::move(stmt->with);
  stmt->with.clear();
  for (WithItem& w : own) {
    InlineWithInStmt(w.query.get(), defs);
  }
  // Register after resolving bodies; keep storage alive until substitution
  // below clones the bodies.
  for (const WithItem& w : own) defs[w.name] = w.query.get();
  for (auto& f : stmt->from) InlineWithInTableRef(&f, defs);
  for (auto& item : stmt->items) InlineWithInExpr(item.expr.get(), defs);
  InlineWithInExpr(stmt->where.get(), defs);
  InlineWithInExpr(stmt->having.get(), defs);
}

// ---------------------------------------------------------------------------
// Rules 9-20: unnesting machinery
// ---------------------------------------------------------------------------

/// Folds a FROM list into a single table reference (cross joins carry a
/// null condition; the canonicalizer later rebuilds a proper tree).
TableRefPtr FoldFromList(std::vector<TableRefPtr> items) {
  TableRefPtr acc = std::move(items[0]);
  for (size_t i = 1; i < items.size(); ++i) {
    acc = std::make_unique<JoinTableRef>(JoinType::kInner, std::move(acc),
                                         std::move(items[i]), nullptr);
  }
  return acc;
}

void AttachLeftJoin(SelectStmt* stmt, TableRefPtr derived, ExprPtr cond) {
  TableRefPtr left = FoldFromList(std::move(stmt->from));
  stmt->from.clear();
  stmt->from.push_back(std::make_unique<JoinTableRef>(
      JoinType::kLeft, std::move(left), std::move(derived), std::move(cond)));
}

bool SubqueryIsCorrelatedTo(const SelectStmt& sub, const Schema& schema) {
  auto local_cols = VisibleColumns(sub, schema);
  if (!local_cols.ok()) return false;
  ColumnResolver local(std::move(local_cols).value());
  for (const Expr* c : CollectConjuncts(sub.where.get())) {
    if (HasOuterRefs(*c, local)) return true;
  }
  return false;
}

/// Builds the key part (select items, group-by, join condition) shared by
/// all correlated rewrites. Returns the join condition over `alias`.
struct KeySpec {
  std::vector<SelectItem> items;
  std::vector<ExprPtr> group_by;
  ExprPtr join_cond;
};

KeySpec BuildKeySpec(const std::vector<CorrelationPair>& pairs,
                     const std::string& alias) {
  KeySpec spec;
  std::set<std::pair<std::string, std::string>> seen;
  std::set<std::string> used_names;
  for (const CorrelationPair& p : pairs) {
    if (!seen.insert({p.local_table, p.local_column}).second) continue;
    std::string out_name = p.local_column;
    int n = 0;
    while (used_names.count(out_name) > 0) {
      out_name = p.local_column + "_" + std::to_string(++n);
    }
    used_names.insert(out_name);
    SelectItem item;
    item.expr = MakeColumnRef(p.local_table, p.local_column);
    item.alias = out_name;
    spec.items.push_back(std::move(item));
    spec.group_by.push_back(MakeColumnRef(p.local_table, p.local_column));
    spec.join_cond = MakeAnd(
        std::move(spec.join_cond),
        MakeBinary(BinaryOp::kEq, MakeColumnRef(alias, out_name),
                   MakeColumnRef(p.outer_table, p.outer_column)));
  }
  return spec;
}


/// Removes conjuncts of `sub`'s WHERE that constrain only correlation-key
/// columns and rewrites them onto the outer columns. Such filters are
/// constant within each correlation group, so they commute with the
/// grouping — this is what moves subquery filter constants out of the view
/// definition (the paper's central transformation).
ExprPtr PromoteKeyFilters(SelectStmt* sub,
                          const std::vector<CorrelationPair>& pairs,
                          bool enabled) {
  if (!enabled || sub->where == nullptr) return nullptr;
  auto match_pair = [&](const ColumnRefExpr& r) -> const CorrelationPair* {
    for (const CorrelationPair& p : pairs) {
      if (p.local_column == r.column &&
          (r.table.empty() || r.table == p.local_table)) {
        return &p;
      }
    }
    return nullptr;
  };
  std::vector<const Expr*> keep;
  ExprPtr promoted;
  for (const Expr* c : CollectConjuncts(sub->where.get())) {
    std::vector<const ColumnRefExpr*> refs;
    CollectColumnRefsShallow(c, &refs);
    bool all_keys = !refs.empty() && !ContainsSubquery(c);
    std::map<std::string, std::pair<std::string, std::string>> subst;
    if (all_keys) {
      for (const ColumnRefExpr* r : refs) {
        const CorrelationPair* p = match_pair(*r);
        if (p == nullptr) {
          all_keys = false;
          break;
        }
        subst[ToSql(*r)] = {p->outer_table, p->outer_column};
      }
    }
    if (all_keys) {
      promoted = MakeAnd(std::move(promoted), CloneWithSubstitution(*c, subst));
    } else {
      keep.push_back(c);
    }
  }
  if (promoted) sub->where = ConjunctionOf(keep);
  return promoted;
}

/// The unnesting pass. Owns the per-query alias counter and the shared
/// chain-link list.
class Unnester {
 public:
  Unnester(const Schema& schema, std::vector<ChainLink>* chain,
           bool promote_key_filters)
      : schema_(schema), chain_(chain),
        promote_key_filters_(promote_key_filters) {}

  Status Run(SelectStmt* stmt) {
    if (ContainsSubquery(stmt->having.get())) {
      return Status::RewriteError("subqueries in HAVING are not supported");
    }
    // Repeatedly eliminate the first subquery predicate until none remain.
    while (true) {
      VR_ASSIGN_OR_RETURN(auto cols, VisibleColumns(*stmt, schema_));
      ColumnResolver outer(std::move(cols));
      VR_ASSIGN_OR_RETURN(bool changed,
                          TransformFirst(&stmt->where, stmt, outer));
      if (!changed) break;
    }
    // Recurse into derived tables (their own WHERE may nest subqueries).
    for (auto& f : stmt->from) {
      VR_RETURN_NOT_OK(RunOnTableRef(f.get()));
    }
    return Status::OK();
  }

 private:
  Status RunOnTableRef(TableRef* ref) {
    switch (ref->kind) {
      case TableRefKind::kBase:
        return Status::OK();
      case TableRefKind::kDerived:
        return Run(static_cast<DerivedTableRef*>(ref)->subquery.get());
      case TableRefKind::kJoin: {
        auto* j = static_cast<JoinTableRef*>(ref);
        VR_RETURN_NOT_OK(RunOnTableRef(j->left.get()));
        return RunOnTableRef(j->right.get());
      }
    }
    return Status::OK();
  }

  std::string NextAlias() { return "vrsq" + std::to_string(counter_++); }
  std::string NextVar() { return "v" + std::to_string(chain_->size()); }

  /// Finds and transforms the first subquery-bearing node under `slot`.
  /// Returns true if a transformation happened.
  Result<bool> TransformFirst(ExprPtr* slot, SelectStmt* stmt,
                              const ColumnResolver& outer) {
    Expr* e = slot->get();
    if (e == nullptr) return false;
    switch (e->kind) {
      case ExprKind::kQuantifiedCmp: {
        VR_ASSIGN_OR_RETURN(ExprPtr repl, ConvertQuantified(slot));
        *slot = std::move(repl);
        return true;
      }
      case ExprKind::kExists: {
        VR_ASSIGN_OR_RETURN(ExprPtr repl, HandleExists(slot, stmt, outer));
        *slot = std::move(repl);
        return true;
      }
      case ExprKind::kIn: {
        auto* in = static_cast<InExpr*>(e);
        if (in->subquery != nullptr) {
          VR_ASSIGN_OR_RETURN(ExprPtr repl, HandleIn(slot, stmt, outer));
          *slot = std::move(repl);
          return true;
        }
        VR_ASSIGN_OR_RETURN(bool c, TransformFirst(&in->lhs, stmt, outer));
        if (c) return true;
        for (auto& v : in->value_list) {
          VR_ASSIGN_OR_RETURN(bool cv, TransformFirst(&v, stmt, outer));
          if (cv) return true;
        }
        return false;
      }
      case ExprKind::kScalarSubquery: {
        VR_ASSIGN_OR_RETURN(ExprPtr repl, HandleScalar(slot, stmt, outer));
        *slot = std::move(repl);
        return true;
      }
      case ExprKind::kBinary: {
        auto* b = static_cast<BinaryExpr*>(e);
        VR_ASSIGN_OR_RETURN(bool cl, TransformFirst(&b->left, stmt, outer));
        if (cl) return true;
        return TransformFirst(&b->right, stmt, outer);
      }
      case ExprKind::kUnary:
        return TransformFirst(&static_cast<UnaryExpr*>(e)->operand, stmt,
                              outer);
      case ExprKind::kFuncCall: {
        auto* f = static_cast<FuncCallExpr*>(e);
        for (auto& a : f->args) {
          VR_ASSIGN_OR_RETURN(bool c, TransformFirst(&a, stmt, outer));
          if (c) return true;
        }
        return false;
      }
      default:
        return false;
    }
  }

  /// Rules 12 / 18 + Table 1: ANY/SOME/ALL -> IN or MIN/MAX comparison.
  Result<ExprPtr> ConvertQuantified(ExprPtr* slot) {
    auto* q = static_cast<QuantifiedCmpExpr*>(slot->get());
    if (q->quantifier == Quantifier::kAny) {
      if (q->op == BinaryOp::kEq) {
        return ExprPtr(std::make_unique<InExpr>(
            std::move(q->lhs), std::move(q->subquery), /*neg=*/false));
      }
      if (q->op == BinaryOp::kNe) {
        return Status::RewriteError("<> ANY has no conversion (Table 1)");
      }
    } else {
      if (q->op == BinaryOp::kNe) {
        return ExprPtr(std::make_unique<InExpr>(
            std::move(q->lhs), std::move(q->subquery), /*neg=*/true));
      }
      if (q->op == BinaryOp::kEq) {
        return Status::RewriteError("= ALL has no conversion (Table 1)");
      }
    }
    // Comparison conversions: ANY{<,<=}->MAX, ANY{>,>=}->MIN,
    // ALL{<,<=}->MIN, ALL{>,>=}->MAX (Table 1).
    bool less_side = (q->op == BinaryOp::kLt || q->op == BinaryOp::kLe);
    bool use_max = (q->quantifier == Quantifier::kAny) ? less_side : !less_side;
    SelectStmtPtr sub = std::move(q->subquery);
    if (sub->items.size() != 1 || sub->items[0].is_star) {
      return Status::RewriteError(
          "quantified subquery must project exactly one column");
    }
    std::vector<ExprPtr> agg_args;
    agg_args.push_back(std::move(sub->items[0].expr));
    sub->items.clear();
    SelectItem agg_item;
    agg_item.expr = MakeFuncCall(use_max ? "max" : "min", std::move(agg_args));
    sub->items.push_back(std::move(agg_item));
    sub->distinct = false;

    ExprPtr rhs = std::make_unique<ScalarSubqueryExpr>(std::move(sub));
    if (q->quantifier == Quantifier::kAll) {
      // Empty-set semantics: x op ALL(∅) is TRUE. COALESCE the missing
      // aggregate to a sentinel that makes the comparison true.
      double sentinel = less_side ? kPlusInfinity : kMinusInfinity;
      std::vector<ExprPtr> co_args;
      co_args.push_back(std::move(rhs));
      co_args.push_back(MakeLiteral(Value::Double(sentinel)));
      rhs = MakeFuncCall("coalesce", std::move(co_args));
    }
    return MakeBinary(q->op, std::move(q->lhs), std::move(rhs));
  }

  /// Rules 13, 14, 19, 20: EXISTS / NOT EXISTS.
  Result<ExprPtr> HandleExists(ExprPtr* slot, SelectStmt* stmt,
                               const ColumnResolver& outer) {
    auto* node = static_cast<ExistsExpr*>(slot->get());
    SelectStmtPtr sub = std::move(node->subquery);
    const bool negated = node->negated;

    auto count_item = [] {
      std::vector<ExprPtr> args;
      args.push_back(std::make_unique<StarExpr>());
      SelectItem item;
      item.expr = MakeFuncCall("count", std::move(args));
      item.alias = "cnt";
      return item;
    };

    if (SubqueryIsCorrelatedTo(*sub, schema_)) {
      // Rules 13/14 + 10: grouped count, LEFT JOIN, COALESCE filter.
      VR_ASSIGN_OR_RETURN(auto pairs,
                          ExtractCorrelation(sub.get(), schema_, outer));
      ExprPtr phi = PromoteKeyFilters(sub.get(), pairs, promote_key_filters_);
      std::string alias = NextAlias();
      KeySpec spec = BuildKeySpec(pairs, alias);
      auto derived = std::make_unique<SelectStmt>();
      derived->items = std::move(spec.items);
      derived->items.push_back(count_item());
      derived->from = std::move(sub->from);
      derived->where = std::move(sub->where);
      derived->group_by = std::move(spec.group_by);
      VR_RETURN_NOT_OK(Run(derived.get()));  // nested subqueries inside
      AttachLeftJoin(stmt,
                     std::make_unique<DerivedTableRef>(std::move(derived),
                                                       alias),
                     std::move(spec.join_cond));
      std::vector<ExprPtr> co_args;
      co_args.push_back(MakeColumnRef(alias, "cnt"));
      co_args.push_back(MakeIntLiteral(0));
      ExprPtr cnt = MakeFuncCall("coalesce", std::move(co_args));
      // EXISTS(sub AND phi(key)) == phi(outer) AND count >= 1; the negated
      // form wraps the conjunction so OR-splitting (Rules 6/7) can expand
      // it later.
      ExprPtr pos = MakeBinary(BinaryOp::kGe, std::move(cnt),
                               MakeIntLiteral(1));
      if (phi != nullptr) {
        ExprPtr combined = MakeAnd(std::move(phi), std::move(pos));
        if (negated) return MakeNot(std::move(combined));
        return combined;
      }
      if (negated) {
        auto* cmp = static_cast<BinaryExpr*>(pos.get());
        cmp->op = BinaryOp::kLt;
      }
      return pos;
    }
    // Rules 19/20: chain link `v := count subquery`, filter on $v.
    auto link_query = std::make_unique<SelectStmt>();
    link_query->items.push_back(count_item());
    link_query->from = std::move(sub->from);
    link_query->where = std::move(sub->where);
    VR_RETURN_NOT_OK(Run(link_query.get()));
    std::string var = NextVar();
    chain_->push_back(ChainLink{var, std::move(link_query)});
    return MakeBinary(negated ? BinaryOp::kLt : BinaryOp::kGe,
                      std::make_unique<ParamExpr>(var), MakeIntLiteral(1));
  }

  /// True if `e` is a column reference to the primary key of the single
  /// base table in `sub`'s FROM (the statically checkable version of
  /// Rule 16's uniqueness premise).
  bool ProjectsUniqueKey(const SelectStmt& sub, const Expr& e) const {
    if (sub.from.size() != 1 || sub.from[0]->kind != TableRefKind::kBase) {
      return false;
    }
    if (e.kind != ExprKind::kColumnRef) return false;
    const auto& c = static_cast<const ColumnRefExpr&>(e);
    const auto& base = static_cast<const BaseTableRef&>(*sub.from[0]);
    const TableSchema* t = schema_.FindTable(base.name);
    if (t == nullptr) return false;
    if (!c.table.empty() && c.table != base.BindingName()) return false;
    return c.column == t->primary_key();
  }

  /// Rules 11, 16, 17: IN / NOT IN with a subquery. The derived table
  /// carries a constant `1 AS matched` indicator; the padding LEFT JOIN
  /// turns it into NULL for unmatched rows, so the membership test becomes
  /// the bounded predicate COALESCE(matched, 0) >= 1.
  Result<ExprPtr> HandleIn(ExprPtr* slot, SelectStmt* stmt,
                           const ColumnResolver& outer) {
    auto* node = static_cast<InExpr*>(slot->get());
    SelectStmtPtr sub = std::move(node->subquery);
    ExprPtr lhs = std::move(node->lhs);
    const bool negated = node->negated;
    if (sub->items.size() != 1 || sub->items[0].is_star) {
      return Status::RewriteError(
          "IN subquery must project exactly one column");
    }
    ExprPtr val_expr = std::move(sub->items[0].expr);
    sub->items.clear();

    std::string alias = NextAlias();
    auto derived = std::make_unique<SelectStmt>();
    ExprPtr join_cond;
    ExprPtr phi;
    const bool correlated = SubqueryIsCorrelatedTo(*sub, schema_);
    bool unique_key = false;
    if (correlated) {
      // Rule 11: group by (correlation keys, projected column).
      VR_ASSIGN_OR_RETURN(auto pairs,
                          ExtractCorrelation(sub.get(), schema_, outer));
      phi = PromoteKeyFilters(sub.get(), pairs, promote_key_filters_);
      KeySpec spec = BuildKeySpec(pairs, alias);
      derived->items = std::move(spec.items);
      derived->group_by = std::move(spec.group_by);
      join_cond = std::move(spec.join_cond);
    } else {
      unique_key = promote_key_filters_ && ProjectsUniqueKey(*sub, *val_expr);
    }
    SelectItem val_item;
    val_item.expr = val_expr->Clone();
    val_item.alias = "val";
    derived->items.push_back(std::move(val_item));
    {
      SelectItem ind;
      ind.expr = MakeIntLiteral(1);
      ind.alias = "matched";
      derived->items.push_back(std::move(ind));
    }
    if (unique_key) {
      // Rule 16: the projected column is unique, so no dedup grouping is
      // needed and any subquery filter can ride along as projected
      // columns, hoisted into the membership predicate (keeping the view
      // independent of the filter constants).
      std::vector<const Expr*> inner = CollectConjuncts(sub->where.get());
      std::map<std::string, std::pair<std::string, std::string>> subst;
      bool hoistable = true;
      for (const Expr* c : inner) {
        if (ContainsSubquery(c)) {
          hoistable = false;
          break;
        }
        std::vector<const ColumnRefExpr*> refs;
        CollectColumnRefsShallow(c, &refs);
        for (const ColumnRefExpr* r : refs) {
          subst[ToSql(*r)] = {alias, r->column};
        }
      }
      if (hoistable && !inner.empty()) {
        std::set<std::string> projected;
        for (const Expr* c : inner) {
          std::vector<const ColumnRefExpr*> refs;
          CollectColumnRefsShallow(c, &refs);
          for (const ColumnRefExpr* r : refs) {
            if (!projected.insert(r->column).second) continue;
            SelectItem item;
            item.expr = MakeColumnRef(r->table, r->column);
            item.alias = r->column;
            derived->items.push_back(std::move(item));
          }
          phi = MakeAnd(std::move(phi), CloneWithSubstitution(*c, subst));
        }
        sub->where = nullptr;
      }
    } else if (!correlated) {
      // Rule 17: dedup by grouping on the projected column.
      derived->group_by.push_back(val_expr->Clone());
    } else {
      derived->group_by.push_back(val_expr->Clone());
    }
    derived->from = std::move(sub->from);
    derived->where = std::move(sub->where);
    VR_RETURN_NOT_OK(Run(derived.get()));
    join_cond = MakeAnd(
        std::move(join_cond),
        MakeBinary(BinaryOp::kEq, MakeColumnRef(alias, "val"),
                   std::move(lhs)));
    AttachLeftJoin(
        stmt, std::make_unique<DerivedTableRef>(std::move(derived), alias),
        std::move(join_cond));
    std::vector<ExprPtr> co_args;
    co_args.push_back(MakeColumnRef(alias, "matched"));
    co_args.push_back(MakeIntLiteral(0));
    ExprPtr pos = MakeBinary(BinaryOp::kGe,
                             MakeFuncCall("coalesce", std::move(co_args)),
                             MakeIntLiteral(1));
    if (phi != nullptr) {
      ExprPtr combined = MakeAnd(std::move(phi), std::move(pos));
      if (negated) return MakeNot(std::move(combined));
      return combined;
    }
    if (negated) {
      auto* cmp = static_cast<BinaryExpr*>(pos.get());
      cmp->op = BinaryOp::kLt;
    }
    return pos;
  }

  /// Rules 9, 10, 15: scalar subqueries (any position in the predicate).
  Result<ExprPtr> HandleScalar(ExprPtr* slot, SelectStmt* stmt,
                               const ColumnResolver& outer) {
    auto* node = static_cast<ScalarSubqueryExpr*>(slot->get());
    SelectStmtPtr sub = std::move(node->subquery);
    if (sub->items.size() != 1 || sub->items[0].is_star) {
      return Status::RewriteError(
          "scalar subquery must project exactly one expression");
    }
    if (SubqueryIsCorrelatedTo(*sub, schema_)) {
      if (!sub->group_by.empty()) {
        return Status::RewriteError(
            "correlated scalar subquery with GROUP BY is not supported");
      }
      if (!ExprContainsAggregate(sub->items[0].expr.get())) {
        return Status::RewriteError(
            "correlated scalar subquery must be an aggregate");
      }
      VR_ASSIGN_OR_RETURN(auto pairs,
                          ExtractCorrelation(sub.get(), schema_, outer));
      ExprPtr phi = PromoteKeyFilters(sub.get(), pairs, promote_key_filters_);
      std::string alias = NextAlias();
      KeySpec spec = BuildKeySpec(pairs, alias);
      const bool bare_count = IsBareCount(*sub->items[0].expr);
      auto derived = std::make_unique<SelectStmt>();
      derived->items = std::move(spec.items);
      SelectItem agg_item;
      agg_item.expr = std::move(sub->items[0].expr);
      agg_item.alias = "agg";
      derived->items.push_back(std::move(agg_item));
      derived->from = std::move(sub->from);
      derived->where = std::move(sub->where);
      derived->group_by = std::move(spec.group_by);
      VR_RETURN_NOT_OK(Run(derived.get()));
      AttachLeftJoin(stmt,
                     std::make_unique<DerivedTableRef>(std::move(derived),
                                                       alias),
                     std::move(spec.join_cond));
      ExprPtr ref = MakeColumnRef(alias, "agg");
      if (bare_count) {
        // Rule 10 rewrite-trap handling: COUNT over an empty group is 0,
        // not NULL; COALESCE restores that after the padding join.
        std::vector<ExprPtr> args;
        args.push_back(std::move(ref));
        args.push_back(MakeIntLiteral(0));
        ref = MakeFuncCall("coalesce", std::move(args));
      }
      if (phi != nullptr) {
        // The promoted key filter gates the scalar: when it fails, the
        // original subquery aggregated an empty set (NULL, or 0 for a
        // bare COUNT). ifpos() is the engine's CASE-WHEN.
        std::vector<ExprPtr> args;
        args.push_back(std::move(phi));
        args.push_back(std::move(ref));
        ref = MakeFuncCall("ifpos", std::move(args));
        if (bare_count) {
          std::vector<ExprPtr> co;
          co.push_back(std::move(ref));
          co.push_back(MakeIntLiteral(0));
          ref = MakeFuncCall("coalesce", std::move(co));
        }
      }
      return ref;
    }
    // Rule 15: chained query.
    VR_RETURN_NOT_OK(Run(sub.get()));
    std::string var = NextVar();
    chain_->push_back(ChainLink{var, std::move(sub)});
    return ExprPtr(std::make_unique<ParamExpr>(var));
  }

  const Schema& schema_;
  std::vector<ChainLink>* chain_;
  bool promote_key_filters_;
  int counter_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public stages
// ---------------------------------------------------------------------------

Status Rewriter::InlineWithClauses(SelectStmt* stmt) const {
  InlineWithInStmt(stmt, WithDefs{});
  return Status::OK();
}

void InlineWithClausesStandalone(SelectStmt* stmt) {
  InlineWithInStmt(stmt, WithDefs{});
}

Status Rewriter::UnnestPredicates(SelectStmt* stmt,
                                  std::vector<ChainLink>* chain) const {
  Unnester unnester(schema_, chain, options_.enable_key_filter_promotion);
  return unnester.Run(stmt);
}

namespace {

/// Collects pointers to derived tables that are safe targets for Rules 1-3
/// (i.e. not the padded side of a LEFT JOIN).
void CollectHoistTargets(TableRef* ref, bool padded,
                         std::vector<DerivedTableRef*>* out) {
  switch (ref->kind) {
    case TableRefKind::kBase:
      return;
    case TableRefKind::kDerived:
      if (!padded) out->push_back(static_cast<DerivedTableRef*>(ref));
      return;
    case TableRefKind::kJoin: {
      auto* j = static_cast<JoinTableRef*>(ref);
      CollectHoistTargets(j->left.get(), padded, out);
      CollectHoistTargets(j->right.get(),
                          padded || j->join_type == JoinType::kLeft, out);
      return;
    }
  }
}

/// Finds the output name of an existing select item matching `sql`
/// (canonical text of its expression), or empty.
std::string FindProjection(const SelectStmt& sub, const std::string& sql) {
  for (size_t i = 0; i < sub.items.size(); ++i) {
    const SelectItem& item = sub.items[i];
    if (item.is_star || !item.expr) continue;
    if (ToSql(*item.expr) == sql) {
      if (!item.alias.empty()) return item.alias;
      if (item.expr->kind == ExprKind::kColumnRef) {
        return static_cast<const ColumnRefExpr&>(*item.expr).column;
      }
    }
  }
  return "";
}

/// Ensures `sub` projects `expr`; returns its output column name.
std::string EnsureProjection(SelectStmt* sub, const Expr& expr,
                             const std::string& base_name) {
  std::string existing = FindProjection(*sub, ToSql(expr));
  if (!existing.empty()) return existing;
  // Also match a bare column item by column name.
  if (expr.kind == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    for (const SelectItem& item : sub->items) {
      if (item.is_star || !item.expr) continue;
      if (item.expr->kind == ExprKind::kColumnRef) {
        const auto& c = static_cast<const ColumnRefExpr&>(*item.expr);
        if (c.column == ref.column &&
            (ref.table.empty() || c.table.empty() || c.table == ref.table)) {
          return item.alias.empty() ? c.column : item.alias;
        }
      }
    }
  }
  // Add a new projection with a unique alias.
  std::set<std::string> used;
  for (const SelectItem& item : sub->items) {
    if (!item.alias.empty()) {
      used.insert(item.alias);
    } else if (item.expr && item.expr->kind == ExprKind::kColumnRef) {
      used.insert(static_cast<const ColumnRefExpr&>(*item.expr).column);
    }
  }
  std::string name = base_name;
  int n = 0;
  while (used.count(name) > 0) name = base_name + "_" + std::to_string(++n);
  SelectItem item;
  item.expr = expr.Clone();
  item.alias = name;
  sub->items.push_back(std::move(item));
  return name;
}

}  // namespace

Status Rewriter::HoistDerivedFilters(SelectStmt* stmt) const {
  std::vector<DerivedTableRef*> targets;
  for (auto& f : stmt->from) {
    CollectHoistTargets(f.get(), /*padded=*/false, &targets);
  }
  for (DerivedTableRef* d : targets) {
    SelectStmt* sub = d->subquery.get();
    VR_RETURN_NOT_OK(HoistDerivedFilters(sub));  // nested derived tables

    const bool has_group = !sub->group_by.empty();
    bool has_agg = false;
    for (const auto& item : sub->items) {
      if (!item.is_star && ExprContainsAggregate(item.expr.get())) {
        has_agg = true;
      }
    }
    std::set<std::string> group_cols;  // bare column names of GROUP BY refs
    for (const auto& g : sub->group_by) {
      if (g->kind == ExprKind::kColumnRef) {
        group_cols.insert(static_cast<const ColumnRefExpr&>(*g).column);
      }
    }

    std::vector<ExprPtr> hoisted;

    // Rules 1 and 2: WHERE conjuncts.
    {
      std::vector<const Expr*> keep;
      for (const Expr* c : CollectConjuncts(sub->where.get())) {
        bool eligible = false;
        if (!ContainsSubquery(c)) {
          std::vector<const ColumnRefExpr*> refs;
          CollectColumnRefsShallow(c, &refs);
          if (!has_group && !has_agg) {
            eligible = true;  // Rule 1: no grouping, everything moves.
          } else if (has_group) {
            // Rule 2: filter attribute(s) must be grouping columns.
            eligible = !refs.empty();
            for (const ColumnRefExpr* r : refs) {
              if (group_cols.count(r->column) == 0) eligible = false;
            }
          }
          if (eligible && sub->distinct) eligible = false;
          if (eligible) {
            // Project every referenced column and rewrite the predicate
            // onto the derived table's output.
            std::map<std::string, std::pair<std::string, std::string>> subst;
            for (const ColumnRefExpr* r : refs) {
              std::string out = EnsureProjection(sub, *r, r->column);
              subst[ToSql(*r)] = {d->alias, out};
            }
            hoisted.push_back(CloneWithSubstitution(*c, subst));
          }
        }
        if (!eligible) keep.push_back(c);
      }
      sub->where = ConjunctionOf(keep);
    }

    // Rule 3: HAVING conjuncts move to the main WHERE.
    if (sub->having) {
      std::vector<const Expr*> keep;
      for (const Expr* c : CollectConjuncts(sub->having.get())) {
        if (ContainsSubquery(c)) {
          keep.push_back(c);
          continue;
        }
        std::vector<const FuncCallExpr*> aggs;
        CollectAggCalls(c, &aggs);
        std::vector<const ColumnRefExpr*> refs;
        CollectColumnRefsShallow(c, &refs);
        bool eligible = true;
        for (const ColumnRefExpr* r : refs) {
          // Non-aggregate references must be grouping columns. Refs inside
          // aggregate arguments are fine; approximate by allowing either.
          bool inside_agg = false;
          for (const FuncCallExpr* a : aggs) {
            std::vector<const ColumnRefExpr*> inner;
            for (const auto& arg : a->args) {
              CollectColumnRefsShallow(arg.get(), &inner);
            }
            for (const ColumnRefExpr* ir : inner) {
              if (ir == r) inside_agg = true;
            }
          }
          if (!inside_agg && group_cols.count(r->column) == 0) {
            eligible = false;
          }
        }
        if (!eligible) {
          keep.push_back(c);
          continue;
        }
        std::map<std::string, std::pair<std::string, std::string>> subst;
        for (const FuncCallExpr* a : aggs) {
          std::string out = EnsureProjection(sub, *a, "agg");
          subst[ToSql(*a)] = {d->alias, out};
        }
        for (const ColumnRefExpr* r : refs) {
          if (subst.count(ToSql(*r)) > 0) continue;
          bool inside_agg = false;
          for (const FuncCallExpr* a : aggs) {
            std::vector<const ColumnRefExpr*> inner;
            for (const auto& arg : a->args) {
              CollectColumnRefsShallow(arg.get(), &inner);
            }
            for (const ColumnRefExpr* ir : inner) {
              if (ir == r) inside_agg = true;
            }
          }
          if (inside_agg) continue;
          std::string out = EnsureProjection(sub, *r, r->column);
          subst[ToSql(*r)] = {d->alias, out};
        }
        hoisted.push_back(CloneWithSubstitution(*c, subst));
      }
      sub->having = ConjunctionOf(keep);
    }

    for (ExprPtr& h : hoisted) {
      stmt->where = MakeAnd(std::move(stmt->where), std::move(h));
    }
  }
  return Status::OK();
}

namespace {

/// Canonical signature of a derived table body (Rules 4/5 merge key).
std::string DerivedBodySignature(const SelectStmt& sub) {
  std::string sig = "F:";
  for (const auto& f : sub.from) sig += ToSql(*f) + ",";
  sig += "|W:";
  if (sub.where) sig += ToSql(*sub.where);
  sig += "|G:";
  for (const auto& g : sub.group_by) sig += ToSql(*g) + ",";
  sig += "|H:";
  if (sub.having) sig += ToSql(*sub.having);
  sig += sub.distinct ? "|D" : "";
  return sig;
}

std::string OutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr && item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(*item.expr).column;
  }
  if (item.expr && item.expr->kind == ExprKind::kFuncCall) {
    return static_cast<const FuncCallExpr&>(*item.expr).name;
  }
  return "expr";
}

/// Merges `dup`'s select list into `kept`, producing the column remap for
/// references to `dup`'s alias.
AliasRemap MergeSelectLists(SelectStmt* kept, const std::string& kept_alias,
                            const SelectStmt& dup) {
  AliasRemap remap;
  remap.new_alias = kept_alias;
  std::set<std::string> used;
  for (const auto& item : kept->items) used.insert(OutputName(item));
  for (const auto& item : dup.items) {
    std::string dup_name = OutputName(item);
    std::string existing =
        item.expr ? FindProjection(*kept, ToSql(*item.expr)) : "";
    if (!existing.empty()) {
      remap.column_map[dup_name] = existing;
      continue;
    }
    std::string name = dup_name;
    int n = 0;
    while (used.count(name) > 0) name = dup_name + "_" + std::to_string(++n);
    used.insert(name);
    SelectItem clone = item.Clone();
    clone.alias = name;
    kept->items.push_back(std::move(clone));
    remap.column_map[dup_name] = name;
  }
  return remap;
}

}  // namespace

Status Rewriter::MergeDerivedTables(SelectStmt* stmt) const {
  // Case A: derived tables that are direct FROM items (comma list).
  {
    std::map<std::string, size_t> first_by_sig;  // signature -> from index
    std::map<std::string, AliasRemap> remaps;
    std::vector<TableRefPtr> new_from;
    for (auto& f : stmt->from) {
      if (f->kind != TableRefKind::kDerived) {
        new_from.push_back(std::move(f));
        continue;
      }
      auto* d = static_cast<DerivedTableRef*>(f.get());
      std::string sig = DerivedBodySignature(*d->subquery);
      auto it = first_by_sig.find(sig);
      if (it == first_by_sig.end()) {
        first_by_sig[sig] = new_from.size();
        new_from.push_back(std::move(f));
        continue;
      }
      auto* kept =
          static_cast<DerivedTableRef*>(new_from[it->second].get());
      remaps[d->alias] = MergeSelectLists(kept->subquery.get(), kept->alias,
                                          *d->subquery);
      // f dropped.
    }
    stmt->from = std::move(new_from);
    if (!remaps.empty()) RemapRefsInStmt(stmt, remaps);
  }

  // Case B: LEFT JOIN attachments on the spine built by the unnester.
  if (stmt->from.size() == 1 && stmt->from[0]->kind == TableRefKind::kJoin) {
    // Peel the spine of left-joined derived tables.
    std::vector<std::pair<TableRefPtr, ExprPtr>> attachments;
    TableRefPtr cur = std::move(stmt->from[0]);
    while (cur->kind == TableRefKind::kJoin) {
      auto* j = static_cast<JoinTableRef*>(cur.get());
      if (j->join_type != JoinType::kLeft ||
          j->right->kind != TableRefKind::kDerived) {
        break;
      }
      attachments.emplace_back(std::move(j->right), std::move(j->condition));
      cur = std::move(j->left);
    }
    std::reverse(attachments.begin(), attachments.end());

    std::map<std::string, size_t> first_by_sig;
    std::map<std::string, AliasRemap> remaps;
    std::vector<std::pair<TableRefPtr, ExprPtr>> kept;
    for (auto& [ref, cond] : attachments) {
      auto* d = static_cast<DerivedTableRef*>(ref.get());
      // The join condition references the attachment alias; normalize it
      // out of the signature so same-shaped attachments match.
      ExprPtr cond_norm = cond ? cond->Clone() : nullptr;
      if (cond_norm) {
        std::map<std::string, AliasRemap> self;
        AliasRemap r;
        r.new_alias = "_self_";
        for (const auto& item : d->subquery->items) {
          r.column_map[OutputName(item)] = OutputName(item);
        }
        self[d->alias] = std::move(r);
        RemapRefs(cond_norm.get(), self);
      }
      std::string sig = DerivedBodySignature(*d->subquery) + "|C:" +
                        (cond_norm ? ToSql(*cond_norm) : "");
      auto it = first_by_sig.find(sig);
      if (it == first_by_sig.end()) {
        first_by_sig[sig] = kept.size();
        kept.emplace_back(std::move(ref), std::move(cond));
        continue;
      }
      auto* kd = static_cast<DerivedTableRef*>(kept[it->second].first.get());
      remaps[d->alias] =
          MergeSelectLists(kd->subquery.get(), kd->alias, *d->subquery);
    }

    // Rebuild the spine.
    for (auto& [ref, cond] : kept) {
      cur = std::make_unique<JoinTableRef>(JoinType::kLeft, std::move(cur),
                                           std::move(ref), std::move(cond));
    }
    stmt->from[0] = std::move(cur);
    if (!remaps.empty()) RemapRefsInStmt(stmt, remaps);
  }
  return Status::OK();
}

namespace {

struct FlattenResult {
  std::vector<TableRefPtr> leaves;
  std::vector<std::pair<TableRefPtr, ExprPtr>> left_attachments;
  std::vector<ExprPtr> cond_pool;
};

void FlattenJoins(TableRefPtr ref, FlattenResult* out) {
  if (ref->kind == TableRefKind::kJoin) {
    auto* j = static_cast<JoinTableRef*>(ref.get());
    if (j->join_type == JoinType::kInner) {
      for (ExprPtr& c :
           [&] {
             std::vector<ExprPtr> cs;
             for (const Expr* c : CollectConjuncts(j->condition.get())) {
               cs.push_back(c->Clone());
             }
             return cs;
           }()) {
        out->cond_pool.push_back(std::move(c));
      }
      FlattenJoins(std::move(j->left), out);
      FlattenJoins(std::move(j->right), out);
      return;
    }
    if (j->join_type == JoinType::kLeft) {
      FlattenJoins(std::move(j->left), out);
      out->left_attachments.emplace_back(std::move(j->right),
                                         std::move(j->condition));
      return;
    }
    // NATURAL joins stay opaque.
  }
  out->leaves.push_back(std::move(ref));
}

std::string LeafKey(const TableRef& ref) {
  if (ref.kind == TableRefKind::kBase) {
    const auto& b = static_cast<const BaseTableRef&>(ref);
    return "0:" + b.name + ":" + b.alias;
  }
  return "1:" + ToSql(ref);
}

}  // namespace

Status Rewriter::CanonicalizeJoins(SelectStmt* stmt) const {
  if (stmt->from.empty()) return Status::OK();

  FlattenResult flat;
  for (auto& f : stmt->from) FlattenJoins(std::move(f), &flat);
  stmt->from.clear();

  // Canonicalize inside derived leaves and attachments first.
  for (auto& leaf : flat.leaves) {
    if (leaf->kind == TableRefKind::kDerived) {
      VR_RETURN_NOT_OK(CanonicalizeJoins(
          static_cast<DerivedTableRef*>(leaf.get())->subquery.get()));
    }
  }
  for (auto& [ref, cond] : flat.left_attachments) {
    (void)cond;
    if (ref->kind == TableRefKind::kDerived) {
      VR_RETURN_NOT_OK(CanonicalizeJoins(
          static_cast<DerivedTableRef*>(ref.get())->subquery.get()));
    }
  }

  // Resolver per leaf.
  std::vector<ColumnResolver> resolvers;
  for (const auto& leaf : flat.leaves) {
    VR_ASSIGN_OR_RETURN(auto cols, TableRefColumns(*leaf, schema_));
    resolvers.emplace_back(std::move(cols));
  }
  auto leaf_of = [&](const ColumnRefExpr& ref) -> int {
    int found = -1;
    for (size_t i = 0; i < resolvers.size(); ++i) {
      if (resolvers[i].Resolves(ref)) {
        if (found >= 0) return -2;
        found = static_cast<int>(i);
      }
    }
    return found;
  };

  // Pull equi conjuncts from WHERE into the condition pool.
  {
    std::vector<const Expr*> keep;
    for (const Expr* c : CollectConjuncts(stmt->where.get())) {
      bool pooled = false;
      if (c->kind == ExprKind::kBinary) {
        const auto* b = static_cast<const BinaryExpr*>(c);
        if (b->op == BinaryOp::kEq &&
            b->left->kind == ExprKind::kColumnRef &&
            b->right->kind == ExprKind::kColumnRef) {
          int li = leaf_of(static_cast<const ColumnRefExpr&>(*b->left));
          int ri = leaf_of(static_cast<const ColumnRefExpr&>(*b->right));
          if (li >= 0 && ri >= 0 && li != ri) {
            flat.cond_pool.push_back(c->Clone());
            pooled = true;
          }
        }
      }
      if (!pooled) keep.push_back(c);
    }
    stmt->where = ConjunctionOf(keep);
  }

  // Classify pool conditions by the pair of leaves they bridge. Equality
  // operands are ordered canonically so `a.x = b.y` and `b.y = a.x` yield
  // the same signature.
  struct PoolCond {
    ExprPtr cond;
    int a = -1, b = -1;
    bool used = false;
  };
  std::vector<PoolCond> pool;
  for (ExprPtr& c : flat.cond_pool) {
    if (c->kind == ExprKind::kBinary) {
      auto* b = static_cast<BinaryExpr*>(c.get());
      if (b->op == BinaryOp::kEq && ToSql(*b->left) > ToSql(*b->right)) {
        std::swap(b->left, b->right);
      }
    }
    PoolCond pc;
    std::vector<const ColumnRefExpr*> refs;
    CollectColumnRefsShallow(c.get(), &refs);
    std::set<int> touched;
    bool ok = true;
    for (const ColumnRefExpr* r : refs) {
      int li = leaf_of(*r);
      if (li < 0) {
        ok = false;
        break;
      }
      touched.insert(li);
    }
    if (ok && touched.size() == 2) {
      auto it = touched.begin();
      pc.a = *it++;
      pc.b = *it;
      pc.cond = std::move(c);
      pool.push_back(std::move(pc));
    } else {
      // Falls back to a plain WHERE filter.
      stmt->where = MakeAnd(std::move(stmt->where), std::move(c));
    }
  }

  // Deterministic leaf order.
  std::vector<size_t> order(flat.leaves.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return LeafKey(*flat.leaves[x]) < LeafKey(*flat.leaves[y]);
  });

  // Greedy left-deep construction: start from the first leaf in canonical
  // order; repeatedly attach the smallest-keyed leaf connected by a pool
  // condition, falling back to the next unused leaf (cross join).
  std::set<size_t> in_tree;
  std::vector<bool> used_leaf(flat.leaves.size(), false);
  TableRefPtr tree = std::move(flat.leaves[order[0]]);
  used_leaf[order[0]] = true;
  in_tree.insert(order[0]);
  for (size_t step = 1; step < order.size(); ++step) {
    int next = -1;
    for (size_t cand : order) {
      if (used_leaf[cand]) continue;
      for (const PoolCond& pc : pool) {
        if (pc.used) continue;
        bool bridges = (in_tree.count(pc.a) > 0 &&
                        static_cast<size_t>(pc.b) == cand) ||
                       (in_tree.count(pc.b) > 0 &&
                        static_cast<size_t>(pc.a) == cand);
        if (bridges) {
          next = static_cast<int>(cand);
          break;
        }
      }
      if (next >= 0) break;
    }
    if (next < 0) {
      for (size_t cand : order) {
        if (!used_leaf[cand]) {
          next = static_cast<int>(cand);
          break;
        }
      }
    }
    size_t ni = static_cast<size_t>(next);
    ExprPtr on;
    for (PoolCond& pc : pool) {
      if (pc.used) continue;
      bool bridges =
          (in_tree.count(pc.a) > 0 && static_cast<size_t>(pc.b) == ni) ||
          (in_tree.count(pc.b) > 0 && static_cast<size_t>(pc.a) == ni);
      if (bridges) {
        pc.used = true;
        on = MakeAnd(std::move(on), std::move(pc.cond));
      }
    }
    tree = std::make_unique<JoinTableRef>(JoinType::kInner, std::move(tree),
                                          std::move(flat.leaves[ni]),
                                          std::move(on));
    used_leaf[ni] = true;
    in_tree.insert(ni);
  }
  // Any unused pool condition connects leaves already merged; keep as WHERE.
  for (PoolCond& pc : pool) {
    if (!pc.used && pc.cond) {
      stmt->where = MakeAnd(std::move(stmt->where), std::move(pc.cond));
    }
  }

  // Attach LEFT JOINs in deterministic order.
  std::sort(flat.left_attachments.begin(), flat.left_attachments.end(),
            [](const auto& x, const auto& y) {
              std::string kx = ToSql(*x.first) +
                               (x.second ? ToSql(*x.second) : "");
              std::string ky = ToSql(*y.first) +
                               (y.second ? ToSql(*y.second) : "");
              return kx < ky;
            });
  for (auto& [ref, cond] : flat.left_attachments) {
    tree = std::make_unique<JoinTableRef>(JoinType::kLeft, std::move(tree),
                                          std::move(ref), std::move(cond));
  }
  stmt->from.push_back(std::move(tree));
  return Status::OK();
}

Result<QueryCombination> Rewriter::SplitDisjunction(SelectStmtPtr stmt) const {
  auto single = [&](SelectStmtPtr s) {
    QueryCombination combo;
    QueryCombination::Term term;
    term.coeff = 1.0;
    term.query = std::move(s);
    combo.terms.push_back(std::move(term));
    return combo;
  };
  if (!options_.enable_or_split || stmt->where == nullptr ||
      !HasOr(stmt->where.get())) {
    return single(std::move(stmt));
  }
  // Rule 7 applies to scalar aggregate queries (a count/sum over the
  // filtered join); grouped queries pass through unsplit.
  const bool scalar_agg = stmt->group_by.empty() && stmt->items.size() == 1 &&
                          !stmt->items[0].is_star &&
                          ExprContainsAggregate(stmt->items[0].expr.get());
  if (!scalar_agg) {
    return single(std::move(stmt));
  }
  // The paper knob (max_or_disjuncts -> kRewriteError) trips first under
  // default configuration; the governance cap (max_dnf_disjuncts ->
  // kResourceExhausted) backstops it should the knob be raised.
  const size_t governance_cap = options_.limits.max_dnf_disjuncts;
  const size_t max_d = std::min(options_.max_or_disjuncts, governance_cap);
  bool dnf_cap_tripped = false;
  Result<std::vector<Disjunct>> dnf_result =
      ToDnf(*stmt->where, max_d, &dnf_cap_tripped);
  if (!dnf_result.ok()) {
    // Relabel only a genuine disjunct-cap trip while the governance cap
    // is the effective bound; unrelated rewrite errors pass through.
    if (dnf_cap_tripped && options_.max_or_disjuncts > governance_cap) {
      return Status::ResourceExhausted(
          "DNF expansion exceeds the governance limit (" +
          std::to_string(governance_cap) + " disjuncts)");
    }
    return dnf_result.status();
  }
  std::vector<Disjunct> dnf = std::move(dnf_result).value();
  if (dnf.size() == 1) {
    std::vector<const Expr*> atoms;
    for (const auto& a : dnf[0]) atoms.push_back(a.get());
    stmt->where = ConjunctionOf(atoms);
    return single(std::move(stmt));
  }
  stmt->where = nullptr;
  return InclusionExclusion(*stmt, dnf, options_.limits.max_ie_terms);
}

Result<RewrittenQuery> Rewriter::Rewrite(const SelectStmt& query) const {
  VR_FAULT_POINT(faults::kRewrite);
  return RewriteTemplate(query);
}

Result<RewrittenQuery> Rewriter::RewriteTemplate(
    const SelectStmt& query) const {
  SelectStmtPtr stmt = query.Clone();
  RewrittenQuery out;

  VR_RETURN_NOT_OK(InlineWithClauses(stmt.get()));
  if (options_.enable_unnest) {
    VR_RETURN_NOT_OK(UnnestPredicates(stmt.get(), &out.chain));
  }
  if (options_.enable_hoist) {
    VR_RETURN_NOT_OK(HoistDerivedFilters(stmt.get()));
  }
  if (options_.enable_merge) {
    VR_RETURN_NOT_OK(MergeDerivedTables(stmt.get()));
  }
  VR_RETURN_NOT_OK(CanonicalizeJoins(stmt.get()));

  // Chain links go through the same normalization so that their FROM
  // structures define stable views too.
  for (ChainLink& link : out.chain) {
    if (options_.enable_hoist) {
      VR_RETURN_NOT_OK(HoistDerivedFilters(link.query.get()));
    }
    if (options_.enable_merge) {
      VR_RETURN_NOT_OK(MergeDerivedTables(link.query.get()));
    }
    VR_RETURN_NOT_OK(CanonicalizeJoins(link.query.get()));
  }

  VR_ASSIGN_OR_RETURN(out.combination, SplitDisjunction(std::move(stmt)));
  return out;
}

}  // namespace viewrewrite
