#include "view/synopsis.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "aggregate/aggregate_planner.h"
#include "common/limits.h"
#include "dp/mechanism.h"
#include "dp/truncation.h"
#include "rewrite/analysis.h"
#include "sql/printer.h"
#include "view/cell_eval.h"

namespace viewrewrite {

namespace {

constexpr const char* kKeyAlias = "__pk";

/// MIN/MAX's presence floor on a release: a slice's noisy count must clear
/// twice the count's noise scale, and at least one row.
double ReleaseExtremumFloor(double count_noise_scale) {
  return std::max(1.0, 2.0 * count_noise_scale);
}

void CollectBaseLeaves(const TableRef& ref,
                       std::vector<const BaseTableRef*>* out) {
  switch (ref.kind) {
    case TableRefKind::kBase:
      out->push_back(static_cast<const BaseTableRef*>(&ref));
      return;
    case TableRefKind::kDerived:
      return;
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      CollectBaseLeaves(*j.left, out);
      CollectBaseLeaves(*j.right, out);
      return;
    }
  }
}

void CollectDerivedLeaves(const TableRef& ref,
                          std::vector<const DerivedTableRef*>* out) {
  switch (ref.kind) {
    case TableRefKind::kBase:
      return;
    case TableRefKind::kDerived:
      out->push_back(static_cast<const DerivedTableRef*>(&ref));
      return;
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      CollectDerivedLeaves(*j.left, out);
      CollectDerivedLeaves(*j.right, out);
      return;
    }
  }
}

std::string ItemOutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr && item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(*item.expr).column;
  }
  if (item.expr && item.expr->kind == ExprKind::kFuncCall) {
    return static_cast<const FuncCallExpr&>(*item.expr).name;
  }
  return "expr";
}

/// True if the reference (recursively, through derived bodies) contains a
/// base table that is, or references, the primary privacy relation.
bool TouchesPrivacyRelation(const TableRef& ref, const Schema& schema,
                            const PrivacyPolicy& policy) {
  switch (ref.kind) {
    case TableRefKind::kBase: {
      const auto& b = static_cast<const BaseTableRef&>(ref);
      return b.name == policy.primary_relation ||
             schema.References(b.name, policy.primary_relation);
    }
    case TableRefKind::kDerived: {
      const auto& d = static_cast<const DerivedTableRef&>(ref);
      for (const auto& f : d.subquery->from) {
        if (TouchesPrivacyRelation(*f, schema, policy)) return true;
      }
      return false;
    }
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      return TouchesPrivacyRelation(*j.left, schema, policy) ||
             TouchesPrivacyRelation(*j.right, schema, policy);
    }
  }
  return false;
}

}  // namespace

Result<ExprPtr> ResolvePrivacyKey(SelectStmt* mat_stmt, const Schema& schema,
                                  const PrivacyPolicy& policy) {
  VR_ASSIGN_OR_RETURN(const TableSchema* primary,
                      schema.GetTable(policy.primary_relation));

  std::vector<const BaseTableRef*> leaves;
  for (const auto& f : mat_stmt->from) CollectBaseLeaves(*f, &leaves);

  // Case 1: the primary privacy relation participates directly.
  for (const BaseTableRef* leaf : leaves) {
    if (leaf->name == policy.primary_relation) {
      return MakeColumnRef(leaf->BindingName(), primary->primary_key());
    }
  }

  // Case 2: a participating relation references R_P through foreign keys;
  // augment the materialization with the N:1 path joins (row-preserving).
  for (const BaseTableRef* leaf : leaves) {
    // BFS over the FK graph from leaf->name to the primary relation.
    std::map<std::string, std::pair<std::string, const ForeignKey*>> pred;
    std::deque<std::string> queue = {leaf->name};
    pred[leaf->name] = {"", nullptr};
    bool found = false;
    while (!queue.empty() && !found) {
      std::string cur = queue.front();
      queue.pop_front();
      const TableSchema* t = schema.FindTable(cur);
      if (t == nullptr) continue;
      for (const ForeignKey& fk : t->foreign_keys()) {
        if (pred.count(fk.ref_table) > 0) continue;
        pred[fk.ref_table] = {cur, &fk};
        if (fk.ref_table == policy.primary_relation) {
          found = true;
          break;
        }
        queue.push_back(fk.ref_table);
      }
    }
    if (!found) continue;
    // Reconstruct the hop sequence leaf -> ... -> primary.
    std::vector<const ForeignKey*> hops;
    std::string cur = policy.primary_relation;
    while (cur != leaf->name) {
      auto& [prev, fk] = pred[cur];
      hops.push_back(fk);
      cur = prev;
    }
    std::reverse(hops.begin(), hops.end());
    std::string binding = leaf->BindingName();
    int idx = 0;
    for (const ForeignKey* fk : hops) {
      VR_ASSIGN_OR_RETURN(const TableSchema* ref_schema,
                          schema.GetTable(fk->ref_table));
      (void)ref_schema;
      std::string alias = "__pp" + std::to_string(idx++);
      mat_stmt->from.push_back(
          std::make_unique<BaseTableRef>(fk->ref_table, alias));
      mat_stmt->where = MakeAnd(
          std::move(mat_stmt->where),
          MakeBinary(BinaryOp::kEq, MakeColumnRef(binding, fk->column),
                     MakeColumnRef(alias, fk->ref_column)));
      binding = alias;
    }
    return MakeColumnRef(binding, primary->primary_key());
  }

  // Case 3: protected data reaches the view only through an aggregated
  // derived table. Use that table's grouping key (its first output) as a
  // surrogate individual id — a documented approximation of lineage
  // through aggregation.
  std::vector<const DerivedTableRef*> derived;
  for (const auto& f : mat_stmt->from) CollectDerivedLeaves(*f, &derived);
  for (const DerivedTableRef* d : derived) {
    if (!TouchesPrivacyRelation(*d, schema, policy)) continue;
    if (!d->subquery->items.empty() && !d->subquery->items[0].is_star) {
      return MakeColumnRef(d->alias, ItemOutputName(d->subquery->items[0]));
    }
  }
  // No participating relation holds or references R_P: neighboring
  // databases agree on every row of this view, so it is insensitive.
  return ExprPtr(nullptr);
}

Result<Synopsis> Synopsis::Build(const ViewDef& view, const Database& db,
                                 const PrivacyPolicy& policy, double epsilon,
                                 const SynopsisOptions& options, Random* rng,
                                 std::optional<Synopsis>* truth) {
  if (epsilon <= 0) {
    return Status::PrivacyError("synopsis requires a positive budget");
  }
  Synopsis s;
  s.view_ = &view;

  // ---- Dimension grid. ----------------------------------------------------
  // Checked multiply: with hostile domains the running product can wrap
  // uint64 (e.g. two ~2^33-bucket dimensions) and sneak under max_cells,
  // so the overflow itself must trip the budget check.
  uint64_t total = 1;
  for (const ViewAttribute& a : view.attributes()) {
    int64_t size = a.domain.CellCount() + 1;  // + NULL/other cell
    s.dim_sizes_.push_back(size);
    if (!CheckedMulU64(total, static_cast<uint64_t>(size), &total) ||
        total > options.max_cells) {
      return Status::InvalidArgument("view '" + view.signature() +
                                     "' exceeds the synopsis cell budget");
    }
  }
  s.total_cells_ = static_cast<size_t>(total);
  s.ComputeRepresentatives();

  // ---- Materialization statement. -----------------------------------------
  auto mat = std::make_unique<SelectStmt>();
  for (const auto& f : view.from_template().from) mat->from.push_back(f->Clone());
  mat->where = view.from_template().where
                   ? view.from_template().where->Clone()
                   : nullptr;
  for (size_t i = 0; i < view.attributes().size(); ++i) {
    const ViewAttribute& a = view.attributes()[i];
    SelectItem item;
    item.expr = MakeColumnRef(a.table, a.column);
    item.alias = "a" + std::to_string(i);
    mat->items.push_back(std::move(item));
  }
  std::vector<std::string> sum_keys;
  for (const ViewMeasure& m : view.measures()) {
    if (m.kind != ViewMeasure::Kind::kSum) continue;
    SelectItem item;
    item.expr = m.expr->Clone();
    item.alias = "m" + std::to_string(sum_keys.size());
    mat->items.push_back(std::move(item));
    sum_keys.push_back(m.key);
  }
  VR_ASSIGN_OR_RETURN(ExprPtr key_expr,
                      ResolvePrivacyKey(mat.get(), db.schema(), policy));
  const bool insensitive = (key_expr == nullptr);
  if (insensitive) {
    // The view never touches protected data; a constant key makes the
    // truncation machinery a no-op and sensitivity-0 noise exact.
    key_expr = MakeIntLiteral(0);
  }
  {
    SelectItem item;
    item.expr = std::move(key_expr);
    item.alias = kKeyAlias;
    mat->items.push_back(std::move(item));
  }

  Executor executor(db);
  VR_ASSIGN_OR_RETURN(ResultSet rs, executor.Execute(*mat));
  s.stats_.materialized_rows = rs.NumRows();

  const size_t n_attrs = view.attributes().size();
  const size_t n_sums = sum_keys.size();
  const size_t key_col = n_attrs + n_sums;

  // ---- Truncation threshold (DLS + SVT, §9). -------------------------------
  std::unordered_map<Value, int64_t, ValueHash> per_key;
  for (const Row& row : rs.rows) ++per_key[row[key_col]];
  std::vector<double> contributions;
  contributions.reserve(per_key.size());
  for (const auto& [k, c] : per_key) {
    (void)k;
    contributions.push_back(static_cast<double>(c));
  }
  const double eps_pivot = epsilon * options.trunc_pivot_frac;
  const double eps_svt = epsilon * options.trunc_svt_frac;
  int64_t tau = 1;
  if (insensitive) {
    // All rows share the constant key; keep every row.
    tau = static_cast<int64_t>(rs.NumRows()) + 1;
  } else {
    VR_ASSIGN_OR_RETURN(
        tau, SelectTruncationThreshold(contributions, eps_pivot, eps_svt,
                                       rng));
  }
  s.stats_.tau = tau;
  s.stats_.dls = DownwardLocalSensitivity(contributions);
  s.stats_.epsilon = epsilon;

  // ---- Truncate and histogram. ---------------------------------------------
  std::vector<double> count_cells(s.total_cells_, 0.0);
  std::vector<std::vector<double>> sum_cells(
      n_sums, std::vector<double>(s.total_cells_, 0.0));

  std::unordered_map<Value, int64_t, ValueHash> kept;
  size_t kept_rows = 0;
  for (const Row& row : rs.rows) {
    int64_t& used = kept[row[key_col]];
    if (used >= tau) continue;
    ++used;
    ++kept_rows;
    // Row-major over dim_sizes_, the last dimension fastest.
    size_t flat = 0;
    for (size_t i = 0; i < n_attrs; ++i) {
      flat = flat * static_cast<size_t>(s.dim_sizes_[i]) +
             static_cast<size_t>(s.CellOf(i, row[i]));
    }
    count_cells[flat] += 1.0;
    for (size_t m = 0; m < n_sums; ++m) {
      const Value& v = row[n_attrs + m];
      if (!v.is_null() && v.is_numeric()) {
        sum_cells[m][flat] += v.ToDouble();
      }
    }
  }
  s.stats_.truncated_rows = kept_rows;
  s.stats_.cells = s.total_cells_;

  // The ground-truth twin shares the grid and every build statistic; the
  // release keeps only the statistics that are DP outputs or public.
  Synopsis twin = s;
  twin.extremum_floor_ = 0.5;
  s.stats_.dls = 0;
  s.stats_.materialized_rows = 0;
  s.stats_.truncated_rows = 0;

  // ---- Publish with the matrix mechanism (identity strategy). --------------
  const double eps_hist =
      epsilon * (1.0 - options.trunc_pivot_frac - options.trunc_svt_frac);
  const double eps_each = eps_hist / static_cast<double>(1 + n_sums);

  const double count_sensitivity = insensitive ? 0.0 : static_cast<double>(tau);
  auto release = [&](const std::string& key, std::vector<double> exact,
                     double sensitivity) -> Status {
    VR_ASSIGN_OR_RETURN(std::vector<double> noisy,
                        PublishIdentity(exact, sensitivity, eps_each, rng));
    s.cells_[key] = std::move(noisy);
    s.noise_scales_[key] = sensitivity / eps_each;
    twin.cells_[key] = std::move(exact);
    return Status::OK();
  };
  VR_RETURN_NOT_OK(release("count", std::move(count_cells), count_sensitivity));
  s.extremum_floor_ = ReleaseExtremumFloor(s.noise_scales_["count"]);

  for (size_t m = 0; m < n_sums; ++m) {
    double bound = 1.0;
    int mi = view.MeasureIndex(sum_keys[m]);
    if (mi >= 0) bound = view.measures()[mi].value_bound;
    VR_RETURN_NOT_OK(release(sum_keys[m], std::move(sum_cells[m]),
                             count_sensitivity * bound));
  }
  if (truth != nullptr) *truth = std::move(twin);
  return s;
}

void Synopsis::ComputeRepresentatives() {
  reps_.assign(dim_sizes_.size(), {});
  for (size_t dim = 0; dim < dim_sizes_.size(); ++dim) {
    const ColumnDomain& d = view_->attributes()[dim].domain;
    reps_[dim].reserve(static_cast<size_t>(dim_sizes_[dim]));
    for (int64_t idx = 0; idx < dim_sizes_[dim]; ++idx) {
      if (idx >= d.CellCount()) {
        reps_[dim].push_back(Value::Null());
      } else if (d.kind == ColumnDomain::Kind::kCategorical) {
        reps_[dim].push_back(d.categories[static_cast<size_t>(idx)]);
      } else {
        auto [lo, hi] = d.BucketBounds(idx);
        // Continuous convention: the bucket covers [lo, hi + 1).
        reps_[dim].push_back(Value::Double(
            (static_cast<double>(lo) + static_cast<double>(hi) + 1.0) / 2.0));
      }
    }
  }
  // Bucket midpoints strictly increase; categories are checked.
  distinct_groups_.assign(dim_sizes_.size(), true);
  for (size_t dim = 0; dim < dim_sizes_.size(); ++dim) {
    const ColumnDomain& d = view_->attributes()[dim].domain;
    if (d.kind != ColumnDomain::Kind::kCategorical) continue;
    std::vector<Value> keys(reps_[dim].begin(),
                            reps_[dim].begin() + d.CellCount());
    for (const Value& k : keys) {
      if (k.is_null() || (k.is_double() && std::isnan(k.AsDoubleExact()))) {
        distinct_groups_[dim] = false;
      }
    }
    if (!distinct_groups_[dim]) continue;
    std::sort(keys.begin(), keys.end());
    for (size_t i = 1; i < keys.size(); ++i) {
      Result<Value::TriCompare> cmp = keys[i - 1].CompareSql(keys[i]);
      if (!cmp.ok() || cmp->cmp == 0) distinct_groups_[dim] = false;
    }
  }
}

int64_t Synopsis::CellOf(size_t dim, const Value& v) const {
  const ColumnDomain& d = view_->attributes()[dim].domain;
  if (v.is_null()) return d.CellCount();
  int64_t idx = d.CellIndex(v);
  if (idx < 0) return d.CellCount();  // unseen category -> "other" cell
  return idx;
}

SynopsisParts Synopsis::ToParts() const {
  SynopsisParts parts;
  parts.dim_sizes = dim_sizes_;
  parts.total_cells = total_cells_;
  parts.noisy = cells_;
  parts.noise_scales = noise_scales_;
  parts.stats = stats_;
  return parts;
}

Result<Synopsis> Synopsis::FromParts(const ViewDef* view,
                                     SynopsisParts parts) {
  if (view == nullptr) {
    return Status::InvalidArgument("synopsis parts need a view to bind to");
  }
  // The persisted grid must agree with the view definition it is bound
  // to: one size per attribute, each the domain's cell count plus the
  // NULL/other cell, with the flat arrays sized to the grid product.
  if (parts.dim_sizes.size() != view->attributes().size()) {
    return Status::Corruption(
        "synopsis dimension count does not match view '" +
        view->signature() + "'");
  }
  uint64_t product = 1;
  for (size_t i = 0; i < parts.dim_sizes.size(); ++i) {
    const int64_t expect = view->attributes()[i].domain.CellCount() + 1;
    if (parts.dim_sizes[i] != expect) {
      return Status::Corruption("synopsis dimension " + std::to_string(i) +
                                " size mismatch for view '" +
                                view->signature() + "'");
    }
    if (!CheckedMulU64(product, static_cast<uint64_t>(parts.dim_sizes[i]),
                       &product)) {
      return Status::Corruption("synopsis cell grid overflows for view '" +
                                view->signature() + "'");
    }
  }
  if (parts.total_cells != product) {
    return Status::Corruption("synopsis cell total mismatch for view '" +
                              view->signature() + "'");
  }
  if (parts.noisy.count("count") == 0) {
    return Status::Corruption("synopsis for view '" + view->signature() +
                              "' is missing its count histogram");
  }
  for (const auto& [key, cells] : parts.noisy) {
    if (cells.size() != parts.total_cells) {
      return Status::Corruption("synopsis array '" + key +
                                "' has wrong length for view '" +
                                view->signature() + "'");
    }
  }
  for (const auto& [key, scale] : parts.noise_scales) {
    if (parts.noisy.count(key) == 0 || !std::isfinite(scale) || scale < 0) {
      return Status::Corruption("synopsis noise scale for '" + key +
                                "' is invalid for view '" +
                                view->signature() + "'");
    }
  }
  Synopsis s;
  s.view_ = view;
  s.dim_sizes_ = std::move(parts.dim_sizes);
  s.total_cells_ = parts.total_cells;
  s.cells_ = std::move(parts.noisy);
  s.noise_scales_ = std::move(parts.noise_scales);
  const auto count_scale = s.noise_scales_.find("count");
  s.extremum_floor_ = ReleaseExtremumFloor(
      count_scale == s.noise_scales_.end() ? 0.0 : count_scale->second);
  s.stats_ = parts.stats;
  s.ComputeRepresentatives();
  return s;
}

template <typename Visit>
Status Synopsis::WalkMatchingCells(const Expr* where, const ParamMap& params,
                                   Visit&& visit) const {
  const size_t n = dim_sizes_.size();
  CellScope scope(*view_, params);

  // Compile the WHERE into a cell program. A conjunct over one dimension
  // filters that dimension's indices, a constant one decides the whole
  // query, and any other gets a truth table over only the dimensions it
  // reads. Table entries are filled when the walk first reaches them, so
  // an evaluation error surfaces at the same cell and conjunct as when
  // every conjunct is evaluated per cell.
  struct Tabled {
    const Expr* expr;
    std::vector<size_t> dims;
    std::vector<size_t> strides;  // per dims entry, over allowed positions
    std::vector<int8_t> truth;    // -1 until evaluated
  };
  std::vector<std::vector<const Expr*>> dim_conjuncts(n);
  std::vector<const Expr*> constant;
  std::vector<Tabled> tabled;
  for (const Expr* c : CollectConjuncts(where)) {
    std::vector<size_t> dims;
    if (!scope.Resolve(*c, &dims)) {
      return Status::ExecutionError(
          "query filter references a non-view attribute: " + ToSql(*c));
    }
    if (dims.empty()) {
      constant.push_back(c);  // constant / param-only predicate
    } else if (dims.size() == 1) {
      dim_conjuncts[dims[0]].push_back(c);
    } else {
      tabled.push_back({c, std::move(dims), {}, {}});
    }
  }

  // Constant predicates can rule out every cell (e.g. `$v >= 1`).
  for (const Expr* c : constant) {
    VR_ASSIGN_OR_RETURN(bool pass, EvalCellPredicate(*c, scope));
    if (!pass) return Status::OK();
  }

  // Allowed indices per dimension.
  std::vector<std::vector<size_t>> allowed(n);
  bool none = false;
  for (size_t d = 0; d < n; ++d) {
    for (size_t idx = 0; idx < reps_[d].size(); ++idx) {
      scope.SetCell(d, &reps_[d][idx]);
      bool ok = true;
      for (const Expr* c : dim_conjuncts[d]) {
        VR_ASSIGN_OR_RETURN(bool pass, EvalCellPredicate(*c, scope));
        if (!pass) {
          ok = false;
          break;
        }
      }
      if (ok) allowed[d].push_back(idx);
    }
    none = none || allowed[d].empty();
  }
  if (none) return Status::OK();

  for (Tabled& t : tabled) {
    size_t entries = 1;
    t.strides.resize(t.dims.size());
    for (size_t k = t.dims.size(); k-- > 0;) {
      t.strides[k] = entries;
      entries *= allowed[t.dims[k]].size();
    }
    t.truth.assign(entries, -1);
  }
  std::vector<size_t> flat_strides(n);
  size_t stride = 1;
  for (size_t d = n; d-- > 0;) {
    flat_strides[d] = stride;
    stride *= static_cast<size_t>(dim_sizes_[d]);
  }

  // Odometer over the allowed cells, last dimension fastest: the cells
  // are visited in flat-index order.
  std::vector<size_t> pos(n, 0);
  std::vector<size_t> cell(n);
  for (size_t d = 0; d < n; ++d) {
    cell[d] = allowed[d][0];
    scope.SetCell(d, &reps_[d][cell[d]]);
  }
  while (true) {
    bool pass = true;
    for (Tabled& t : tabled) {
      size_t entry = 0;
      for (size_t k = 0; k < t.dims.size(); ++k) {
        entry += pos[t.dims[k]] * t.strides[k];
      }
      int8_t& truth = t.truth[entry];
      if (truth < 0) {
        VR_ASSIGN_OR_RETURN(bool p, EvalCellPredicate(*t.expr, scope));
        truth = p ? 1 : 0;
      }
      if (truth == 0) {
        pass = false;
        break;
      }
    }
    if (pass) {
      size_t flat = 0;
      for (size_t d = 0; d < n; ++d) flat += cell[d] * flat_strides[d];
      visit(flat, cell);
    }
    // Step to the next allowed cell, carrying into slower dimensions.
    size_t d = n;
    for (; d > 0; --d) {
      const size_t k = d - 1;
      if (++pos[k] == allowed[k].size()) pos[k] = 0;
      cell[k] = allowed[k][pos[k]];
      scope.SetCell(k, &reps_[k][cell[k]]);
      if (pos[k] != 0) break;
    }
    if (d == 0) break;
  }
  return Status::OK();
}

Result<double> Synopsis::SumMatchingCells(const std::vector<double>& array,
                                          const Expr* where,
                                          const ParamMap& params) const {
  double total = 0;
  VR_RETURN_NOT_OK(WalkMatchingCells(
      where, params,
      [&](size_t flat, const std::vector<size_t>&) { total += array[flat]; }));
  return total;
}

Result<double> Synopsis::EstimateExtremum(const ColumnRefExpr& column,
                                          bool is_max, const Expr* where,
                                          const ParamMap& params) const {
  const int found = view_->AttributeIndex(column.table, column.column);
  if (found < 0) {
    return Status::NotFound("extremum column '" + column.FullName() +
                            "' is not a view dimension");
  }
  const size_t dim = static_cast<size_t>(found);
  const ViewAttribute& attr = view_->attributes()[dim];
  const int64_t cells = attr.domain.CellCount();

  // Noisy count of qualifying rows in each slice of the target dimension
  // (WHERE applied); the noisy extremum is the outermost slice whose
  // count clears the noise floor.
  auto slice_count = [&](int64_t idx) -> Result<double> {
    ExprPtr eq = MakeBinary(
        BinaryOp::kEq, MakeColumnRef(attr.table, attr.column),
        MakeLiteral(reps_[dim][static_cast<size_t>(idx)]));
    ExprPtr combined =
        where ? MakeAnd(where->Clone(), std::move(eq)) : std::move(eq);
    return SumMatchingCells(cells_.at("count"), combined.get(), params);
  };
  std::vector<double> counts;
  counts.reserve(static_cast<size_t>(cells));
  for (int64_t idx = 0; idx < cells; ++idx) {
    VR_ASSIGN_OR_RETURN(double c, slice_count(idx));
    counts.push_back(c);
  }
  if (is_max) {
    for (int64_t idx = cells - 1; idx >= 0; --idx) {
      if (counts[static_cast<size_t>(idx)] > extremum_floor_) {
        return reps_[dim][static_cast<size_t>(idx)].ToDouble();
      }
    }
  } else {
    for (int64_t idx = 0; idx < cells; ++idx) {
      if (counts[static_cast<size_t>(idx)] > extremum_floor_) {
        return reps_[dim][static_cast<size_t>(idx)].ToDouble();
      }
    }
  }
  // Nothing cleared the noise floor (tiny budgets or an empty selection):
  // fall back to the most plausible slice so answering degrades gracefully
  // instead of failing.
  int64_t best = 0;
  for (int64_t idx = 1; idx < cells; ++idx) {
    if (counts[static_cast<size_t>(idx)] > counts[static_cast<size_t>(best)]) {
      best = idx;
    }
  }
  return reps_[dim][static_cast<size_t>(best)].ToDouble();
}

namespace {

/// Evaluates an item expression after aggregate calls have been resolved
/// to numbers (keyed by canonical SQL).
Result<double> EvalAggregateExpr(
    const Expr& e, const std::map<std::string, double>& agg_values) {
  auto it = agg_values.find(ToSql(e));
  if (it != agg_values.end()) return it->second;
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
      VR_ASSIGN_OR_RETURN(double l, EvalAggregateExpr(*b.left, agg_values));
      VR_ASSIGN_OR_RETURN(double r, EvalAggregateExpr(*b.right, agg_values));
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
                            EvalAggregateExpr(*u.operand, agg_values));
        return -v;
      }
      return Status::Unsupported("NOT in aggregate expression");
    }
    default:
      return Status::Unsupported("expression around aggregates");
  }
}

void CollectAggCallsForAnswer(const Expr* e,
                              std::vector<const FuncCallExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kFuncCall) {
    const auto* f = static_cast<const FuncCallExpr*>(e);
    if (f->IsAggregate()) {
      out->push_back(f);
      return;
    }
    for (const auto& a : f->args) CollectAggCallsForAnswer(a.get(), out);
    return;
  }
  if (e->kind == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(e);
    CollectAggCallsForAnswer(b->left.get(), out);
    CollectAggCallsForAnswer(b->right.get(), out);
    return;
  }
  if (e->kind == ExprKind::kUnary) {
    CollectAggCallsForAnswer(static_cast<const UnaryExpr*>(e)->operand.get(),
                             out);
  }
}

}  // namespace

Result<aggregate::GroupedData> Synopsis::AnswerGroupedData(
    const SelectStmt& query, const ParamMap& params) const {
  if (query.group_by.empty()) {
    return Status::InvalidArgument("AnswerGrouped requires GROUP BY");
  }
  // Resolve each group-by column to a view dimension.
  std::vector<size_t> group_dims;
  for (const ExprPtr& g : query.group_by) {
    if (g->kind != ExprKind::kColumnRef) {
      return Status::Unsupported("GROUP BY over non-column expressions");
    }
    const auto& ref = static_cast<const ColumnRefExpr&>(*g);
    int dim = view_->AttributeIndex(ref.table, ref.column);
    if (dim < 0) {
      return Status::NotFound("GROUP BY column '" + ref.FullName() +
                              "' is not a view attribute");
    }
    group_dims.push_back(static_cast<size_t>(dim));
  }

  // Output columns: group keys and aggregate items in select-list order.
  aggregate::GroupedData data;
  for (const SelectItem& item : query.items) {
    if (item.is_star || !item.expr) {
      return Status::Unsupported("SELECT * in a grouped synopsis query");
    }
    if (!item.alias.empty()) {
      data.columns.push_back(item.alias);
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      data.columns.push_back(
          static_cast<const ColumnRefExpr&>(*item.expr).column);
    } else if (item.expr->kind == ExprKind::kFuncCall) {
      data.columns.push_back(
          static_cast<const FuncCallExpr&>(*item.expr).name);
    } else {
      data.columns.push_back("expr");
    }
    data.is_aggregate.push_back(item.expr->kind != ExprKind::kColumnRef);
  }

  // The synthetic COUNT(*) backing every row's noisy_count, then each
  // distinct aggregate call of the select list and HAVING, in order.
  std::vector<ExprPtr> star_args;
  star_args.push_back(std::make_unique<StarExpr>());
  const FuncCallExpr count_star("count", std::move(star_args));
  std::vector<const FuncCallExpr*> calls{&count_star};
  for (const SelectItem& item : query.items) {
    CollectAggCallsForAnswer(item.expr.get(), &calls);
  }
  CollectAggCallsForAnswer(query.having.get(), &calls);
  std::vector<std::string> agg_keys;
  std::vector<const FuncCallExpr*> aggs;
  for (const FuncCallExpr* call : calls) {
    std::string key = ToSql(*call);
    if (std::find(agg_keys.begin(), agg_keys.end(), key) != agg_keys.end()) {
      continue;
    }
    agg_keys.push_back(std::move(key));
    aggs.push_back(call);
  }

  // Groups: the value cells of each group dimension (the NULL/other
  // padding cell is not a publishable group key), row-major in GROUP BY
  // order.
  std::vector<size_t> group_cells;
  size_t num_groups = 1;
  for (size_t dim : group_dims) {
    group_cells.push_back(
        static_cast<size_t>(view_->attributes()[dim].domain.CellCount()));
    num_groups *= group_cells.back();
  }
  std::vector<size_t> combo(group_dims.size(), 0);
  auto set_combo = [&](size_t g) {
    for (size_t k = group_dims.size(); k-- > 0;) {
      combo[k] = g % group_cells[k];
      g /= group_cells[k];
    }
  };

  // One output row per group from its aggregate readings (aggs order).
  auto emit_row = [&](const double* readings) -> Status {
    // Group-key values, for select items and for HAVING column refs.
    std::map<std::string, Value> group_values;
    for (size_t gi = 0; gi < group_dims.size(); ++gi) {
      const ViewAttribute& attr = view_->attributes()[group_dims[gi]];
      const Value& rep = reps_[group_dims[gi]][combo[gi]];
      group_values[attr.column] = rep;
      group_values[attr.table + "." + attr.column] = rep;
    }
    std::map<std::string, double> agg_values;
    for (size_t a = 0; a < aggs.size(); ++a) {
      agg_values[agg_keys[a]] = readings[a];
    }

    aggregate::EvalContext ctx;
    ctx.aggregates = &agg_values;
    ctx.columns = &group_values;
    ctx.params = &params;

    // Post-noise HAVING: the aggregates above are already published
    // noisy values, so filtering on them is pure post-processing.
    if (query.having != nullptr) {
      VR_ASSIGN_OR_RETURN(bool keep,
                          aggregate::EvaluateHaving(*query.having, ctx));
      if (!keep) return Status::OK();
    }

    aggregate::GroupedRow row;
    row.noisy_count = readings[0];
    for (const SelectItem& item : query.items) {
      if (item.expr->kind == ExprKind::kColumnRef) {
        // Group key output.
        const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
        int dim = view_->AttributeIndex(ref.table, ref.column);
        bool emitted = false;
        for (size_t gi = 0; gi < group_dims.size(); ++gi) {
          if (static_cast<int>(group_dims[gi]) == dim) {
            row.values.push_back(reps_[group_dims[gi]][combo[gi]]);
            emitted = true;
            break;
          }
        }
        if (!emitted) {
          return Status::InvalidArgument(
              "non-grouped column '" + ref.FullName() +
              "' in grouped select list");
        }
        continue;
      }
      VR_ASSIGN_OR_RETURN(Value v, aggregate::EvalExpr(*item.expr, ctx));
      if (!v.is_numeric()) {
        return Status::TypeMismatch(
            "grouped aggregate item did not evaluate to a number");
      }
      row.values.push_back(Value::Double(v.ToDouble()));
    }
    data.rows.push_back(std::move(row));
    return Status::OK();
  };

  if (num_groups == 0) return data;
  VR_ASSIGN_OR_RETURN(
      std::optional<std::vector<double>> totals,
      GroupedReadings(aggs, query.where.get(), params, group_dims,
                      group_cells));
  if (totals.has_value()) {
    for (size_t g = 0; g < num_groups; ++g) {
      set_combo(g);
      VR_RETURN_NOT_OK(emit_row(totals->data() + g * aggs.size()));
    }
    return data;
  }

  // Per-group path, for what one pass answers differently: answer each
  // group's slice by pinning the group dimensions with synthetic
  // equality predicates.
  std::vector<double> readings(aggs.size());
  for (size_t g = 0; g < num_groups; ++g) {
    set_combo(g);
    ExprPtr where = query.where ? query.where->Clone() : nullptr;
    for (size_t gi = 0; gi < group_dims.size(); ++gi) {
      const ViewAttribute& attr = view_->attributes()[group_dims[gi]];
      const Value& rep = reps_[group_dims[gi]][combo[gi]];
      where = MakeAnd(std::move(where),
                      MakeBinary(BinaryOp::kEq,
                                 MakeColumnRef(attr.table, attr.column),
                                 MakeLiteral(rep)));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      VR_ASSIGN_OR_RETURN(readings[a],
                          AnswerAggCall(*aggs[a], where.get(), params));
    }
    VR_RETURN_NOT_OK(emit_row(readings.data()));
  }
  return data;
}

Result<std::optional<std::vector<double>>> Synopsis::GroupedReadings(
    const std::vector<const FuncCallExpr*>& aggs, const Expr* where,
    const ParamMap& params, const std::vector<size_t>& group_dims,
    const std::vector<size_t>& group_cells) const {
  using Readings = std::optional<std::vector<double>>;
  const Readings per_group;  // nullopt: the per-group path answers
  for (size_t dim : group_dims) {
    if (!distinct_groups_[dim]) return per_group;
  }
  // Plan every aggregate once; the measures they read are totalled per
  // group in a single walk. MIN/MAX scan slices, so those (and any plan or
  // measure error, which the per-group path reports) leave the answer to
  // the per-group path.
  std::vector<const std::vector<double>*> measures;
  auto measure = [&](const std::string& key) -> int {
    auto it = cells_.find(key);
    if (it == cells_.end()) return -1;
    for (size_t m = 0; m < measures.size(); ++m) {
      if (measures[m] == &it->second) return static_cast<int>(m);
    }
    measures.push_back(&it->second);
    return static_cast<int>(measures.size() - 1);
  };
  struct Reading {
    aggregate::Derivation derivation;
    int count = -1;
    int sum = -1;
    int sumsq = -1;
  };
  std::vector<Reading> readings;
  for (const FuncCallExpr* agg : aggs) {
    Result<aggregate::AggregatePlan> plan = aggregate::PlanAggregate(*agg);
    if (!plan.ok() || plan->is_extremum) return per_group;
    Reading r{plan->derivation};
    if (plan->derivation == aggregate::Derivation::kCount ||
        plan->needs_count) {
      r.count = measure("count");
    }
    if (!plan->sum_key.empty() && (r.sum = measure(plan->sum_key)) < 0) {
      return per_group;
    }
    if (!plan->sumsq_key.empty() &&
        (r.sumsq = measure(plan->sumsq_key)) < 0) {
      return per_group;
    }
    readings.push_back(r);
  }

  // Every admitted cell adds into its group's totals. Cells are visited in
  // flat-index order, so each group's totals add the same values in the
  // same order as its own pinned walk: the sums are bit-identical.
  size_t num_groups = 1;
  std::vector<size_t> group_strides(group_dims.size());
  for (size_t k = group_dims.size(); k-- > 0;) {
    group_strides[k] = num_groups;
    num_groups *= group_cells[k];
  }
  const size_t m = measures.size();
  std::vector<double> totals(num_groups * m, 0.0);
  VR_RETURN_NOT_OK(WalkMatchingCells(
      where, params, [&](size_t flat, const std::vector<size_t>& cell) {
        size_t g = 0;
        for (size_t k = 0; k < group_dims.size(); ++k) {
          const size_t idx = cell[group_dims[k]];
          if (idx >= group_cells[k]) return;  // the padding cell
          g += idx * group_strides[k];
        }
        double* t = totals.data() + g * m;
        for (size_t j = 0; j < m; ++j) t[j] += (*measures[j])[flat];
      }));

  std::vector<double> out(num_groups * aggs.size());
  for (size_t g = 0; g < num_groups; ++g) {
    const double* t = totals.data() + g * m;
    for (size_t a = 0; a < readings.size(); ++a) {
      const Reading& r = readings[a];
      out[g * aggs.size() + a] = aggregate::EvaluateDerived(
          r.derivation, r.count < 0 ? 0 : t[r.count],
          r.sum < 0 ? 0 : t[r.sum], r.sumsq < 0 ? 0 : t[r.sumsq]);
    }
  }
  return Readings(std::move(out));
}

Result<double> Synopsis::AnswerScalar(const SelectStmt& query,
                                      const ParamMap& params) const {
  if (query.items.size() != 1 || query.items[0].is_star) {
    return Status::InvalidArgument(
        "synopsis answering expects a single aggregate item");
  }
  const Expr& item = *query.items[0].expr;
  std::vector<const FuncCallExpr*> aggs;
  CollectAggCallsForAnswer(&item, &aggs);
  if (aggs.empty()) {
    return Status::InvalidArgument("query item has no aggregate");
  }

  std::map<std::string, double> agg_values;
  for (const FuncCallExpr* agg : aggs) {
    VR_ASSIGN_OR_RETURN(double value,
                        AnswerAggCall(*agg, query.where.get(), params));
    agg_values[ToSql(*agg)] = value;
  }
  return EvalAggregateExpr(item, agg_values);
}

Result<double> Synopsis::AnswerAggCall(const FuncCallExpr& agg,
                                       const Expr* where,
                                       const ParamMap& params) const {
  VR_ASSIGN_OR_RETURN(aggregate::AggregatePlan plan,
                      aggregate::PlanAggregate(agg));
  if (plan.is_extremum) {
    return EstimateExtremum(static_cast<const ColumnRefExpr&>(*plan.arg),
                            agg.name == "max", where, params);
  }
  double count = 0;
  double sum = 0;
  double sumsq = 0;
  if (plan.derivation == aggregate::Derivation::kCount || plan.needs_count) {
    VR_ASSIGN_OR_RETURN(count,
                        SumMatchingCells(cells_.at("count"), where, params));
  }
  if (!plan.sum_key.empty()) {
    auto it = cells_.find(plan.sum_key);
    if (it == cells_.end()) {
      return Status::NotFound("view has no measure '" + plan.sum_key + "'");
    }
    VR_ASSIGN_OR_RETURN(sum, SumMatchingCells(it->second, where, params));
  }
  if (!plan.sumsq_key.empty()) {
    auto it = cells_.find(plan.sumsq_key);
    if (it == cells_.end()) {
      return Status::NotFound("view has no measure '" + plan.sumsq_key +
                              "' (needed for " + agg.name + ")");
    }
    VR_ASSIGN_OR_RETURN(sumsq, SumMatchingCells(it->second, where, params));
  }
  return aggregate::EvaluateDerived(plan.derivation, count, sum, sumsq);
}

}  // namespace viewrewrite
