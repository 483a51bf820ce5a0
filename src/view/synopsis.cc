#include "view/synopsis.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "common/limits.h"
#include "dp/mechanism.h"
#include "dp/truncation.h"

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
  // A binary search may select among a dimension's representatives when
  // they are numbers (no NaN) in non-decreasing order followed only by
  // NULLs: bucket midpoints always are, sorted numeric categories too.
  ordered_.assign(dim_sizes_.size(), false);
  ordered_keys_.assign(dim_sizes_.size(), {});
  for (size_t dim = 0; dim < dim_sizes_.size(); ++dim) {
    const std::vector<Value>& reps = reps_[dim];
    std::vector<double>& keys = ordered_keys_[dim];
    for (const Value& rep : reps) {
      if (rep.is_null()) break;
      const double key = rep.is_numeric() ? rep.ToDouble() : NAN;
      if (std::isnan(key) || (!keys.empty() && key < keys.back())) break;
      keys.push_back(key);
    }
    ordered_[dim] = std::all_of(reps.begin() + keys.size(), reps.end(),
                                [](const Value& v) { return v.is_null(); });
    if (!ordered_[dim]) keys.clear();
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

}  // namespace viewrewrite
