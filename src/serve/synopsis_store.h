#ifndef VIEWREWRITE_SERVE_SYNOPSIS_STORE_H_
#define VIEWREWRITE_SERVE_SYNOPSIS_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/limits.h"
#include "common/result.h"
#include "view/view_manager.h"

namespace viewrewrite {

/// A self-contained, persistable snapshot of a publication: every view
/// definition together with its published synopsis, the schema
/// fingerprint the views were built against, and a summary of the budget
/// ledger. Once published, the noisy cells are just data — saving and
/// reloading them consumes no further privacy budget (DP post-processing),
/// which is the paper's "publish once, serve forever" property made
/// durable across process restarts. A store holds only DP outputs and
/// public metadata: no exact cell or exact build statistic is copied in,
/// saved or loaded (the ground truth stays with the publishing
/// ViewManager).
///
/// ## On-disk format (version 3)
///
/// All integers little-endian, doubles as IEEE-754 bit patterns (so a
/// save/load round trip is bit-identical). Layout:
///
///   u32 magic "VRSY"  | u16 format version | u16 reserved
///   repeated sections, each:
///     u32 section tag | u64 payload length | payload bytes | u32 CRC-32
///
/// Section tags: 'H' header (schema fingerprint, view count, ledger
/// summary), 'G' generation metadata (synopsis-lifecycle provenance:
/// generation number, parent epoch, changed-relation set, per-generation
/// epsilon, per-view data generations — optional, at most one, defaults
/// to generation 0 when absent so pre-lifecycle bundles still load), 'V'
/// one view + its synopsis parts (the noisy cells and the Laplace scale
/// of each measure's release), 'E' end marker (empty payload). Load
/// verifies magic, version, every section CRC, and the schema
/// fingerprint, and returns a typed Status (Corruption / Unsupported /
/// InvalidArgument) instead of crashing on any mismatch, truncation, or
/// trailing garbage.
///
/// AST-bearing pieces (the view's FROM template with baked predicates,
/// SUM measure expressions) are persisted as canonical SQL text and
/// re-parsed on load; the printer's canonical rendering makes this
/// round-trip exact.
///
/// Thread safety: a SynopsisStore is immutable after construction; all
/// const members may be called concurrently (see Synopsis's contract).
class SynopsisStore {
 public:
  /// Budget audit summary persisted with the bundle: what the publication
  /// cost, so a serving process can report provenance without the
  /// accountant object.
  struct LedgerSummary {
    double total_epsilon = 0;
    double spent_epsilon = 0;
    uint32_t entries = 0;
    uint32_t refunds = 0;
    /// True when the publishing accountant was poisoned (constructed from
    /// garbage totals or recovery state): the epsilons above then read 0
    /// by design, and this flag distinguishes "nothing spent" from "the
    /// accounting itself was refused". Persisted as an optional trailing
    /// byte of the header section so pre-flag bundles still load (absent
    /// reads as false) and pre-flag builds ignore it.
    bool poisoned = false;
  };

  /// Synopsis-lifecycle provenance persisted with the bundle ('G'
  /// section): which republish generation produced it, the server epoch
  /// it was built to replace (parent), which base relations changed, and
  /// the epsilon that generation spent. Generation 0 is the initial
  /// publication (the defaults, and what pre-lifecycle bundles load as).
  struct GenerationInfo {
    uint64_t generation = 0;
    uint64_t parent_epoch = 0;
    double generation_epsilon = 0;
    std::vector<std::string> changed_relations;
  };

  /// Per-view lifecycle stamp: the generation whose rebuild last
  /// refreshed the view's cells, and (when nonzero) the first generation
  /// whose base-relation change the view missed — the staleness policy's
  /// input.
  struct ViewLifecycle {
    uint64_t data_generation = 0;
    uint64_t outdated_since = 0;  // 0 = fresh
  };

  SynopsisStore(SynopsisStore&&) = default;
  SynopsisStore& operator=(SynopsisStore&&) = default;

  /// Snapshots a published ViewManager (the export hook): deep-copies
  /// every view with a published synopsis, together with the manager's
  /// per-view lifecycle stamps. Views whose publication failed (degraded
  /// mode) are skipped — they have nothing to serve. `generation`
  /// describes the snapshot itself (the two-argument overload snapshots
  /// the initial publication, generation 0).
  static Result<SynopsisStore> FromManager(const ViewManager& manager,
                                           const Schema& schema);
  static Result<SynopsisStore> FromManager(const ViewManager& manager,
                                           const Schema& schema,
                                           GenerationInfo generation);

  /// Writes the bundle to `path` (atomically: a uniquely named temp file
  /// fsync'd and renamed over the target, parent directory fsync'd).
  /// After a successful publish, orphaned `<path>.tmp*` siblings left by
  /// earlier crashed saves are swept away (best-effort): a crash between
  /// the temp write and the rename strands a fully durable temp file, and
  /// without the sweep every crash would leak one. Concurrent Saves to
  /// the same path are not supported (the Republisher serializes them).
  Status Save(const std::string& path) const;

  /// Reads a bundle back and re-binds it against `schema`, which must
  /// fingerprint-match the schema the bundle was built under.
  ///
  /// Resource governance: the loader never trusts a length field. Every
  /// declared element count is cross-checked against the bytes actually
  /// remaining in the section before any reserve/allocate, and all
  /// materialized arrays and strings are charged against
  /// `limits.max_arena_bytes` — so a hostile bundle (e.g. a 100-byte file
  /// declaring 2^60 doubles) fails with kCorruption/kResourceExhausted
  /// instead of a multi-gigabyte allocation or an integer-overflowed
  /// bounds check.
  static Result<SynopsisStore> Load(
      const std::string& path, const Schema& schema,
      const ResourceLimits& limits = ResourceLimits::Defaults());

  size_t NumViews() const { return views_.size(); }
  uint64_t schema_fingerprint() const { return schema_fingerprint_; }
  const LedgerSummary& ledger() const { return ledger_; }
  const std::vector<std::unique_ptr<ViewDef>>& views() const { return views_; }

  const GenerationInfo& generation_info() const { return generation_info_; }
  /// Republish generation this bundle carries (0 = initial publication).
  uint64_t generation() const { return generation_info_.generation; }
  const std::map<std::string, ViewLifecycle>& lifecycle() const {
    return lifecycle_;
  }
  /// Staleness metric for the TTL policy: how many generations ago
  /// `signature`'s base data changed without a successful rebuild.
  /// 0 means fresh (or unknown view). A view outdated since generation g
  /// in a generation-G bundle has been stale for G - g + 1 generations.
  uint64_t OutdatedGenerations(const std::string& signature) const {
    auto it = lifecycle_.find(signature);
    if (it == lifecycle_.end() || it->second.outdated_since == 0) return 0;
    if (generation_info_.generation < it->second.outdated_since) return 1;
    return generation_info_.generation - it->second.outdated_since + 1;
  }

  /// Synopsis for `signature`, or nullptr.
  const Synopsis* Find(const std::string& signature) const;

  /// Serve-time matching: analyzes a scalar aggregate with the same
  /// matcher registration used (view_matcher.h) and binds it to a stored
  /// view. Fails with NotFound (and no budget spend — there is no budget
  /// here to spend) when no stored view has the query's structure or the
  /// view lacks a required attribute/measure.
  Result<BoundQuery> BindScalar(const SelectStmt& query,
                                const BakePredicate& bake) const;

  /// Serve-time matching for a grouped aggregate: same analysis
  /// RegisterGrouped uses (AnalyzeGroupedQuery), so a grouped query that
  /// registered in-process also binds after a save/load round trip. The
  /// bound cell query is the full grouped statement (GROUP BY + HAVING);
  /// answering enumerates group cells and filters post-noise.
  Result<BoundQuery> BindGrouped(const SelectStmt& query,
                                 const BakePredicate& bake) const;

  /// Binds a full rewritten query (chain links + combination terms).
  /// Grouped terms (non-empty GROUP BY) route through BindGrouped.
  Result<BoundRewrittenQuery> Bind(const RewrittenQuery& rq,
                                   const BakePredicate& bake) const;

  /// Answers a bound grouped query from the stored noisy cells: one row
  /// per group cell with per-row noisy counts (the suppression input),
  /// derived aggregates from published measures, HAVING post-noise.
  Result<aggregate::GroupedData> AnswerGrouped(const BoundQuery& q,
                                               const ParamMap& params) const {
    return AnswerBoundGrouped(synopses_, q, params);
  }

  /// Answers a bound rewritten query from the stored noisy cells, through
  /// the same AnswerBound the engines answer with in-process.
  Result<double> Answer(const BoundRewrittenQuery& q,
                        const ParamMap& params = {}) const {
    return AnswerBound(synopses_, q, params);
  }

 private:
  SynopsisStore() = default;

  uint64_t schema_fingerprint_ = 0;
  LedgerSummary ledger_;
  GenerationInfo generation_info_;
  std::map<std::string, ViewLifecycle> lifecycle_;  // signature -> stamps
  /// Owned view definitions; synopses_ hold non-owning pointers into
  /// these, so views_ must never reallocate after construction (it is
  /// built once and then immutable).
  std::vector<std::unique_ptr<ViewDef>> views_;
  std::map<std::string, size_t> view_index_;  // signature -> views_ index
  SynopsisMap synopses_;                      // signature -> synopsis
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SERVE_SYNOPSIS_STORE_H_
