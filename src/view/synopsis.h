#ifndef VIEWREWRITE_VIEW_SYNOPSIS_H_
#define VIEWREWRITE_VIEW_SYNOPSIS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aggregate/grouped_result.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "common/result.h"
#include "exec/executor.h"
#include "storage/table.h"
#include "view/view_def.h"

namespace viewrewrite {

struct SynopsisOptions {
  /// Fractions of the per-view budget spent on the two truncation steps
  /// (noisy pivot Q̂ and SVT); the rest publishes the histograms.
  double trunc_pivot_frac = 0.05;
  double trunc_svt_frac = 0.05;
  /// Hard cap on histogram cells per view.
  size_t max_cells = size_t{1} << 21;
  DomainOptions domain;
};

struct SynopsisParts;

/// A differentially private synopsis of one view: noisy contingency tables
/// (one per measure) over the view's attribute grid, published via the
/// §9 pipeline — materialize, pick truncation threshold τ (DLS + SVT),
/// truncate per protected key, add matrix-mechanism noise.
///
/// Thread safety: once built (or reconstructed), a Synopsis is immutable.
/// Build and FromParts also compute every cell representative, which
/// nothing changes afterwards. All const members — AnswerScalar,
/// AnswerScalarExact, AnswerGrouped, stats, ExactCells — only read the
/// published arrays and representatives and build per-call state, so any
/// number of threads may answer queries from one Synopsis concurrently
/// with no external locking. The serve layer's QueryServer relies on this
/// contract.
class Synopsis {
 public:
  struct BuildStats {
    int64_t tau = 1;
    double dls = 0;
    size_t materialized_rows = 0;
    size_t truncated_rows = 0;
    size_t cells = 0;
    double epsilon = 0;
  };

  /// Materializes and publishes the view under `epsilon` (the view's slice
  /// of the total budget). Deterministic given `rng`.
  static Result<Synopsis> Build(const ViewDef& view, const Database& db,
                                const PrivacyPolicy& policy, double epsilon,
                                const SynopsisOptions& options, Random* rng);

  /// Answers a scalar aggregate `query` whose FROM matches this view by
  /// totalling the noisy measure cells whose representative values
  /// satisfy the WHERE. Each call compiles the WHERE once into a cell
  /// program (per-dimension allowed lists plus truth tables for the
  /// conjuncts that read several dimensions) and walks the allowed cells
  /// in flat-index order, so the sum is the same, bit for bit, as
  /// evaluating the whole WHERE at every cell. Supports COUNT, SUM(expr)
  /// (for registered measure expressions), MIN/MAX/AVG(col) (estimated
  /// from the histograms over col's dimension), and arithmetic around
  /// aggregate calls.
  Result<double> AnswerScalar(const SelectStmt& query,
                              const ParamMap& params) const;

  /// Same as AnswerScalar but over the exact (pre-noise, pre-truncation-
  /// noise) cell totals. Benchmarks use it as ground truth: the paper's
  /// systems answer workload queries exactly from view tuples, so the
  /// reported error isolates the DP noise.
  Result<double> AnswerScalarExact(const SelectStmt& query,
                                   const ParamMap& params) const;

  /// Answers a grouped aggregate (GROUP BY over view attributes): one
  /// output row per group cell, keyed by the cell representative, with
  /// the noisy aggregate per group. This is the private histogram release
  /// for workloads that want per-group results instead of one scalar.
  /// Derived aggregates (AVG, VARIANCE, STDDEV) combine published
  /// measures per the planner; a HAVING clause is evaluated over the
  /// noisy per-group aggregates (pure post-processing) and filters the
  /// rows. Every row carries the group's noisy count for the serve
  /// layer's suppression rule.
  Result<aggregate::GroupedData> AnswerGroupedData(const SelectStmt& query,
                                                   const ParamMap& params,
                                                   bool use_exact = false)
      const;

  /// Flattened convenience wrapper around AnswerGroupedData.
  Result<ResultSet> AnswerGrouped(const SelectStmt& query,
                                  const ParamMap& params,
                                  bool use_exact = false) const;

  const BuildStats& stats() const { return stats_; }
  const ViewDef& view() const { return *view_; }

  /// Exact (pre-noise) cell totals, for tests only.
  const std::vector<double>& ExactCells(const std::string& measure_key) const;

  /// Serialization-friendly snapshot of the published state (deep copy,
  /// no view pointer). The serve layer persists these parts.
  SynopsisParts ToParts() const;

  /// Rebuilds a synopsis from persisted parts, bound to `view` (which the
  /// caller owns and must keep alive). Validates that the parts are
  /// consistent with the view's attribute grid — a corrupted or drifted
  /// bundle yields a Corruption status, never an out-of-bounds answer.
  static Result<Synopsis> FromParts(const ViewDef* view, SynopsisParts parts);

 private:
  Synopsis() = default;

  /// Fills reps_ from the view's attribute domains.
  void ComputeRepresentatives();

  int64_t CellOf(size_t dim, const Value& v) const;

  Result<double> AnswerScalarImpl(const SelectStmt& query,
                                  const ParamMap& params,
                                  bool use_exact) const;

  /// Answers one aggregate call over the cells matching `where` by
  /// combining published measures per its AggregatePlan (the shared
  /// engine behind both the scalar and the grouped answer paths).
  Result<double> AnswerAggCall(const FuncCallExpr& agg, const Expr* where,
                               const ParamMap& params, bool use_exact) const;

  /// Compiles `where` into a cell program once and calls
  /// `visit(flat_index, cell)` for every cell it admits, in flat-index
  /// order (the grid is row-major over dim_sizes_, last dimension
  /// fastest); `cell` holds the cell's index along each dimension.
  template <typename Visit>
  Status WalkMatchingCells(const Expr* where, const ParamMap& params,
                           Visit&& visit) const;

  /// Totals `array` over the cells matching `where`, adding in flat-index
  /// order.
  Result<double> SumMatchingCells(const std::vector<double>& array,
                                  const Expr* where,
                                  const ParamMap& params) const;

  /// Readings of `aggs` for every group of a grouped query (row-major
  /// over `group_dims`, `group_cells` value cells each), from one walk
  /// over the cells matching `where`: readings[g * aggs.size() + a].
  /// nullopt when the per-group path must answer instead (MIN/MAX, group
  /// cells that share a representative, plan or measure errors).
  Result<std::optional<std::vector<double>>> GroupedReadings(
      const std::vector<const FuncCallExpr*>& aggs, const Expr* where,
      const ParamMap& params, const std::vector<size_t>& group_dims,
      const std::vector<size_t>& group_cells, bool use_exact) const;

  Result<double> EstimateExtremum(const ColumnRefExpr& column, bool is_max,
                                  const Expr* where, const ParamMap& params,
                                  bool use_exact) const;

  const ViewDef* view_ = nullptr;  // owned by the ViewManager
  std::vector<int64_t> dim_sizes_;  // CellCount()+1 per attribute
  /// Representative value per dimension and cell index: categorical value
  /// or bucket midpoint, NULL for the extra NULL/other cell.
  std::vector<std::vector<Value>> reps_;
  /// Per dimension: its value cells have pairwise distinct, non-NULL
  /// representatives, so a GROUP BY on it pins exactly one cell per group
  /// (what lets AnswerGroupedData total every group in one pass).
  std::vector<bool> distinct_groups_;
  size_t total_cells_ = 1;
  // measure key -> noisy / exact cell arrays (count first).
  std::map<std::string, std::vector<double>> noisy_;
  std::map<std::string, std::vector<double>> exact_;
  double count_noise_scale_ = 0;
  BuildStats stats_;
};

/// The decomposed state of one published synopsis: everything Save needs
/// to write and FromParts needs to rebuild answering, minus the ViewDef
/// binding (persisted separately, re-bound on load).
struct SynopsisParts {
  std::vector<int64_t> dim_sizes;
  size_t total_cells = 1;
  std::map<std::string, std::vector<double>> noisy;
  std::map<std::string, std::vector<double>> exact;
  double count_noise_scale = 0;
  Synopsis::BuildStats stats;
};

/// Finds (or synthesizes by FK-path augmentation) an expression that
/// identifies the protected individual for every row of the view's join.
/// May append path tables and join predicates to `mat_stmt`. Returns
/// nullptr when no relation of the view holds or references protected
/// data — such a view is invariant across neighboring databases
/// (sensitivity 0) and can be published without noise.
Result<ExprPtr> ResolvePrivacyKey(SelectStmt* mat_stmt, const Schema& schema,
                                  const PrivacyPolicy& policy);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_SYNOPSIS_H_
