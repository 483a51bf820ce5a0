#ifndef VIEWREWRITE_SERVE_TEMPLATE_CACHE_H_
#define VIEWREWRITE_SERVE_TEMPLATE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/sharded_lru.h"
#include "sql/value.h"
#include "view/view_manager.h"

namespace viewrewrite {

/// A compiled query template: parse, rewrite, canonical rendering, bind
/// and the cell plans done once for every text with the same QueryShape
/// key (sql/token.h) under one store epoch. The rewriter moves filter
/// constants out of the subqueries into the final cell queries, so the
/// views a query binds to do not depend on its lifted literals; a template
/// answers every such text by binding the literals' values, by position,
/// to the first `n` slots of its plan's layout (`$1 … $n`). Immutable once
/// built and shared by every request that reuses it.
struct QueryTemplate {
  /// The shape answers through the literal path for this epoch: its
  /// template did not parse, rewrite or bind, or binding the compiling
  /// request's values did not reproduce that request's literal rewrite.
  /// No other member is set.
  bool pinned = false;
  /// The rewritten template bound against the epoch's store.
  BoundRewrittenQuery bound;
  /// `bound` compiled against the epoch's store: one cell plan per chain
  /// link and per term. It borrows `bound` and the store's synopses, so it
  /// runs only under a snapshot of the epoch it was compiled against.
  QueryPlan plan;
  /// A single grouped term without chain links: answered row-wise.
  bool grouped = false;
  /// The staleness flag of the views `bound` touches (fixed per epoch).
  bool outdated = false;
  /// The canonical rewritten SQL split at its `$k` parameters: the
  /// canonical SQL of a request is segments[0], the value of slots[0],
  /// segments[1], … — the text the literal path renders for it.
  std::vector<std::string> segments;
  std::vector<uint32_t> slots;
};

/// Splits the canonical SQL of a template with `num_params` lifted
/// parameters into QueryTemplate::segments / slots.
void SplitCanonicalSql(const std::string& sql, size_t num_params,
                       QueryTemplate* tmpl);

/// Appends the canonical SQL of `tmpl` with `params` (the request's
/// QueryShape::params) bound.
void AppendCanonicalSql(const QueryTemplate& tmpl,
                        const std::vector<Value>& params, std::string* out);

/// A template-cache entry: the template compiled for one shape key under
/// store epoch `epoch`. QueryServer answers only from an entry of its
/// current epoch, so a template never outlives the store it was bound
/// against; a reload drops older entries.
struct CachedTemplate {
  uint64_t epoch = 0;
  std::shared_ptr<const QueryTemplate> tmpl;

  size_t ByteSize() const { return sizeof(CachedTemplate); }
};

/// Sharded LRU of compiled templates keyed by QueryShape key, with a
/// constant entry budget.
class TemplateCache : public ShardedLru<CachedTemplate> {
 public:
  static constexpr size_t kCapacity = 1024;
  static constexpr size_t kShards = 8;

  TemplateCache() : ShardedLru(kCapacity, kShards) {}
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SERVE_TEMPLATE_CACHE_H_
