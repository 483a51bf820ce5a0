#ifndef VIEWREWRITE_REWRITE_REWRITER_H_
#define VIEWREWRITE_REWRITE_REWRITER_H_

#include <algorithm>
#include <vector>

#include "catalog/schema.h"
#include "common/limits.h"
#include "common/result.h"
#include "sql/ast.h"

namespace viewrewrite {

struct RewriteOptions {
  /// Hard cap on DNF disjuncts (Rule 7 emits 2^k - 1 terms). This is the
  /// paper-level quality knob; breaching it is kRewriteError ("this query
  /// is outside the rewrite class"), distinct from the governance caps in
  /// `limits` below (kResourceExhausted, "this input is hostile-sized").
  size_t max_or_disjuncts = 6;
  /// Resource governance for the rewrite pipeline: max_dnf_disjuncts
  /// backstops max_or_disjuncts should it be configured high, and
  /// max_ie_terms bounds the Rule-7 2^k clone expansion.
  ResourceLimits limits;
  /// Stage toggles, used by the ablation benchmarks.
  bool enable_unnest = true;         // Rules 9-20
  bool enable_hoist = true;          // Rules 1-3
  bool enable_merge = true;          // Rules 4-5
  bool enable_or_split = true;       // Rules 6-7
  /// Promote subquery filters that constrain only the correlation key to
  /// main-query predicates on the outer column (sound because such a
  /// filter is constant within each correlation group). Disabled for the
  /// PrivateSQL baseline, whose views keep subquery constants.
  bool enable_key_filter_promotion = true;
};

/// Implements the paper's query-rewriting pipeline (§5-§8):
///
///   Rule 8        WITH -> FROM derived tables
///   Rules 9-20    unnest WHERE subqueries (correlated and non-correlated;
///                 comparison / IN / ANY-SOME-ALL / EXISTS) into grouped
///                 derived tables LEFT-JOINed to the main query, or into
///                 chained scalar links ($var parameters)
///   Rules 1-3     hoist derived-table filters (WHERE on group columns,
///                 HAVING over aggregates) into the main query
///   Rules 4-5     merge structurally identical derived subqueries
///   Rules 6-7     distribute OR over AND and split the query into an
///                 inclusion-exclusion combination of AND-only queries
///
/// The output is a RewrittenQuery whose FROM structure no longer depends
/// on subquery filter constants — the property that keeps the generated
/// view count flat.
class Rewriter {
 public:
  explicit Rewriter(const Schema& schema, RewriteOptions options = {})
      : schema_(schema), options_(options) {}

  /// Runs the full pipeline on `query`.
  Result<RewrittenQuery> Rewrite(const SelectStmt& query) const;

  /// Rewrite without the `rewrite` fault point, for a query template
  /// whose literal form the caller has just rewritten: a request then
  /// counts one fault-point hit, and an injected fault never fails the
  /// template alone.
  Result<RewrittenQuery> RewriteTemplate(const SelectStmt& query) const;

  // Individual stages, exposed for unit tests and ablations. All stages
  // mutate `stmt` in place and are semantics-preserving.

  /// Rule 8: replaces references to WITH names with derived tables.
  Status InlineWithClauses(SelectStmt* stmt) const;

  /// Rules 9-20: eliminates subqueries from the WHERE tree. New scalar
  /// chain links are appended to `chain` in dependency order.
  Status UnnestPredicates(SelectStmt* stmt,
                          std::vector<ChainLink>* chain) const;

  /// Rules 1-3: hoists hoistable filters out of inner-joined derived
  /// tables into the enclosing WHERE. (LEFT-JOINed correlation tables are
  /// left untouched — hoisting through a padding join is not
  /// equivalence-preserving.)
  Status HoistDerivedFilters(SelectStmt* stmt) const;

  /// Rules 4-5: merges derived tables with identical FROM/WHERE/GROUP BY
  /// (and, for join attachments, identical join conditions), unioning
  /// their select lists and remapping references.
  Status MergeDerivedTables(SelectStmt* stmt) const;

  /// Normalizes the FROM clause into a canonical left-deep join tree with
  /// equi-join conditions pulled from WHERE into ON clauses. Gives every
  /// structurally identical query an identical FROM rendering (the view
  /// signature) and enables hash joins in the executor.
  Status CanonicalizeJoins(SelectStmt* stmt) const;

  /// Rules 6-7: splits a scalar aggregate query with OR filters into an
  /// inclusion-exclusion combination. Queries without OR yield one term.
  Result<QueryCombination> SplitDisjunction(SelectStmtPtr stmt) const;

 private:
  const Schema& schema_;
  RewriteOptions options_;
};

/// Rule 8 as a standalone transformation (used by the classifier to
/// resolve WITH names before feature extraction).
void InlineWithClausesStandalone(SelectStmt* stmt);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_REWRITE_REWRITER_H_
