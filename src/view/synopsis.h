#ifndef VIEWREWRITE_VIEW_SYNOPSIS_H_
#define VIEWREWRITE_VIEW_SYNOPSIS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

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
/// A Synopsis holds one set of cell arrays and answers from them. Build
/// can also hand back the release's ground-truth twin: a Synopsis with
/// the same view and grid over the pre-noise totals. The twin answers
/// through the same code, stays in the publishing process (ViewManager
/// keeps it as the benchmark oracle) and is never serialized; ToParts of
/// a release carries no exact cell or exact build statistic.
///
/// Queries are answered from it by compiling a CellPlan
/// (view/cell_plan.h) against it.
///
/// Thread safety: once built (or reconstructed), a Synopsis is immutable.
/// Build and FromParts also compute every cell representative, which
/// nothing changes afterwards. Its const members and every CellPlan
/// compiled against it only read the cell arrays and representatives and
/// build per-call state, so any number of threads may answer queries from
/// one Synopsis concurrently with no external locking. The serve layer's
/// QueryServer relies on this contract.
class Synopsis {
 public:
  /// `dls`, `materialized_rows` and `truncated_rows` describe the exact
  /// data: only the ground-truth twin reports them, a release reads 0.
  struct BuildStats {
    int64_t tau = 1;
    double dls = 0;
    size_t materialized_rows = 0;
    size_t truncated_rows = 0;
    size_t cells = 0;
    double epsilon = 0;
  };

  /// Materializes and publishes the view under `epsilon` (the view's slice
  /// of the total budget). Deterministic given `rng`. With `truth` set, it
  /// also receives the ground-truth twin; the noise drawn is the same
  /// either way.
  static Result<Synopsis> Build(const ViewDef& view, const Database& db,
                                const PrivacyPolicy& policy, double epsilon,
                                const SynopsisOptions& options, Random* rng,
                                std::optional<Synopsis>* truth = nullptr);

  const BuildStats& stats() const { return stats_; }
  const ViewDef& view() const { return *view_; }

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

  friend class CellPlan;  // answers from the cells and representatives

  const ViewDef* view_ = nullptr;  // owned by the ViewManager
  std::vector<int64_t> dim_sizes_;  // CellCount()+1 per attribute
  /// Representative value per dimension and cell index: categorical value
  /// or bucket midpoint, NULL for the extra NULL/other cell.
  std::vector<std::vector<Value>> reps_;
  /// Per dimension: its representatives are numbers in non-decreasing
  /// order (no NaN) followed only by NULLs, so a binary search over
  /// ordered_keys_ (their doubles) selects `col op value` exactly as
  /// CompareSql does.
  std::vector<bool> ordered_;
  std::vector<std::vector<double>> ordered_keys_;
  /// Per dimension: its value cells have pairwise distinct, non-NULL
  /// representatives, so a GROUP BY on it pins exactly one cell per group
  /// (what lets CellPlan::AnswerGrouped total every group in one pass).
  std::vector<bool> distinct_groups_;
  size_t total_cells_ = 1;
  /// measure key -> cell array (count first): noisy on a release, the
  /// pre-noise totals on the ground-truth twin.
  std::map<std::string, std::vector<double>> cells_;
  /// measure key -> Laplace scale of its release (empty on the twin).
  std::map<std::string, double> noise_scales_;
  /// MIN/MAX treat a slice of the target dimension as non-empty when its
  /// count exceeds this floor: twice the count's noise scale, but at least
  /// one row, on a release; half a row on the ground-truth twin.
  double extremum_floor_ = 1.0;
  BuildStats stats_;
};

/// The decomposed state of one published synopsis: everything Save needs
/// to write and FromParts needs to rebuild answering, minus the ViewDef
/// binding (persisted separately, re-bound on load). It holds only DP
/// outputs and public metadata.
struct SynopsisParts {
  std::vector<int64_t> dim_sizes;
  size_t total_cells = 1;
  /// measure key -> noisy cells (a "count" array is required).
  std::map<std::string, std::vector<double>> noisy;
  /// measure key -> Laplace scale its cells were released under; a
  /// measure without an entry reads scale 0.
  std::map<std::string, double> noise_scales;
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
