#ifndef VIEWREWRITE_SERVE_ANSWER_CACHE_H_
#define VIEWREWRITE_SERVE_ANSWER_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "aggregate/grouped_result.h"
#include "serve/sharded_lru.h"

namespace viewrewrite {

/// One served answer — a scalar value or a grouped row set — as the
/// answer cache holds it.
struct CachedAnswer {
  double value = 0;
  uint64_t epoch = 0;
  /// The answer touched a view flagged outdated by the staleness policy
  /// (its base relation changed in a generation whose rebuild failed);
  /// carried through so cached answers stay flagged exactly like
  /// recomputed ones.
  bool outdated = false;
  /// Grouped answers: the immutable row set (post-noise, suppression
  /// already applied). Null for scalar answers. Shared, never copied —
  /// every cache hit hands out the same rows the flight produced.
  std::shared_ptr<const aggregate::GroupedData> rows;

  /// Accounted bytes: grouped row sets are orders of magnitude larger
  /// than scalar entries, so the entry-count budget alone would let them
  /// grow memory unboundedly.
  size_t ByteSize() const {
    return sizeof(CachedAnswer) + (rows != nullptr ? rows->ByteSize() : 0);
  }
};

/// Sharded LRU cache of served answers keyed by canonical cache key (see
/// rewrite/canonical.h). Published answers are deterministic — the noise
/// was drawn once at publication — so a cached value is exactly the value
/// a full re-evaluation would produce; caching changes latency, never
/// results.
///
/// Every entry is tagged with the store **epoch** it was computed under
/// (QueryServer bumps the epoch on each hot reload). An entry whose epoch
/// matches the server's current epoch is fresh; an older entry is a
/// *stale* answer from a previous bundle, which only the overload
/// brownout serves (flagged stale). Sharding, counters and budgets are
/// ShardedLru's.
class AnswerCache : public ShardedLru<CachedAnswer> {
 public:
  using Entry = CachedAnswer;
  using ShardedLru::ShardedLru;
  using ShardedLru::Put;

  /// Put with the entry's fields spelled out.
  void Put(const std::string& key, double value, uint64_t epoch = 0,
           bool outdated = false,
           std::shared_ptr<const aggregate::GroupedData> rows = nullptr) {
    Put(key, CachedAnswer{value, epoch, outdated, std::move(rows)});
  }
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SERVE_ANSWER_CACHE_H_
