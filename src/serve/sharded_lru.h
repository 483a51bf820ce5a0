#ifndef VIEWREWRITE_SERVE_SHARDED_LRU_H_
#define VIEWREWRITE_SERVE_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rewrite/canonical.h"

namespace viewrewrite {

/// Per-stripe counter snapshot (see ShardedLru::StripeStatsSnapshot).
struct CacheStripeStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// Sharded LRU keyed by string, the structure behind the serve path's
/// answer cache (serve/answer_cache.h) and template cache
/// (serve/template_cache.h). `Entry` is a copyable payload with a
/// `uint64_t epoch` member (the store epoch it was computed under) and a
/// `size_t ByteSize() const` (its accounted bytes, key excluded).
///
/// Thread safety: fully thread safe. Keys hash to one of `shards`
/// independent LRU stripes, each behind its own mutex, so concurrent
/// workers rarely contend unless they touch the same stripe. Hit, miss
/// and eviction counters live **per stripe** on the stripe's own cache
/// line (there is no global counter pair for every lookup to bounce on);
/// the totals exposed by hits()/misses()/evictions() and the per-stripe
/// breakdown in StripeStatsSnapshot() are summed at read time.
template <typename Entry>
class ShardedLru {
 public:
  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each shard holds at least one entry). `shards` is clamped to >= 1.
  /// `max_bytes`, when nonzero, additionally caps each shard at
  /// max_bytes / shards of accounted bytes (key + Entry::ByteSize()).
  ShardedLru(size_t capacity, size_t shards, size_t max_bytes = 0)
      : per_shard_capacity_(
            std::max<size_t>(1, capacity / std::max<size_t>(1, shards))),
        per_shard_bytes_(max_bytes / std::max<size_t>(1, shards)),
        shards_(std::max<size_t>(1, shards)) {}

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Returns the cached entry and refreshes its recency, or nullopt.
  /// Counts one hit or one miss. Epoch interpretation is the caller's.
  std::optional<Entry> Get(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  /// Inserts (or replaces) `key`, evicting the shard's least recently
  /// used entries while the shard is over its entry or byte budget.
  void Put(const std::string& key, Entry entry) {
    const size_t bytes = EntryBytes(key, entry);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes.fetch_sub(EntryBytes(key, it->second->second),
                            std::memory_order_relaxed);
      shard.bytes.fetch_add(bytes, std::memory_order_relaxed);
      it->second->second = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      EvictWhileOver(shard);
      return;
    }
    shard.bytes.fetch_add(bytes, std::memory_order_relaxed);
    shard.lru.emplace_front(key, std::move(entry));
    shard.index[key] = shard.lru.begin();
    EvictWhileOver(shard);
  }

  /// Generation-eviction hook for the synopsis lifecycle: drops every
  /// entry tagged with an epoch older than `min_epoch`, freeing the
  /// stripes' slots for current-generation entries (evicted entries are
  /// counted in evictions()). Returns how many entries were dropped.
  uint64_t EvictOlderThan(uint64_t min_epoch) {
    uint64_t dropped = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->second.epoch < min_epoch) {
          shard.bytes.fetch_sub(EntryBytes(it->first, it->second),
                                std::memory_order_relaxed);
          shard.index.erase(it->first);
          it = shard.lru.erase(it);
          shard.evictions.fetch_add(1, std::memory_order_relaxed);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    return dropped;
  }

  uint64_t hits() const { return Sum(&Shard::hits); }
  uint64_t misses() const { return Sum(&Shard::misses); }
  uint64_t evictions() const { return Sum(&Shard::evictions); }
  size_t num_stripes() const { return shards_.size(); }
  /// Current resident entries (sums shard sizes; approximate under
  /// concurrent mutation).
  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }
  /// Accounted bytes resident across all shards; approximate under
  /// concurrent mutation.
  size_t byte_size() const { return Sum(&Shard::bytes); }
  /// Per-stripe counters plus resident entries, for observability and the
  /// stats-sharding tests. Approximate under concurrent mutation, exact
  /// once writers are quiesced.
  std::vector<CacheStripeStats> StripeStatsSnapshot() const {
    std::vector<CacheStripeStats> out;
    out.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      CacheStripeStats s;
      s.hits = shard.hits.load(std::memory_order_relaxed);
      s.misses = shard.misses.load(std::memory_order_relaxed);
      s.evictions = shard.evictions.load(std::memory_order_relaxed);
      s.bytes = shard.bytes.load(std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        s.entries = shard.lru.size();
      }
      out.push_back(s);
    }
    return out;
  }

 private:
  using List = std::list<std::pair<std::string, Entry>>;
  struct Shard {
    mutable std::mutex mu;
    // Most recently used at the front.
    List lru;
    std::unordered_map<std::string, typename List::iterator> index;
    // Accounted bytes resident in this shard; mutated under `mu`, read
    // lock-free by byte_size(), hence atomic with relaxed ordering.
    std::atomic<size_t> bytes{0};
    // Stripe-local counters: mutated under `mu`, read lock-free by the
    // snapshot methods, hence atomics with relaxed ordering.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  static size_t EntryBytes(const std::string& key, const Entry& entry) {
    return key.size() + entry.ByteSize();
  }

  /// Evicts from the tail while the shard is over its entry or byte
  /// budget. Caller holds shard.mu.
  void EvictWhileOver(Shard& shard) {
    while (!shard.lru.empty() &&
           (shard.lru.size() > per_shard_capacity_ ||
            (per_shard_bytes_ > 0 &&
             shard.bytes.load(std::memory_order_relaxed) >
                 per_shard_bytes_))) {
      // The byte budget may evict below one entry: a single entry larger
      // than the whole budget must not pin itself resident.
      auto& victim = shard.lru.back();
      shard.bytes.fetch_sub(EntryBytes(victim.first, victim.second),
                            std::memory_order_relaxed);
      shard.index.erase(victim.first);
      shard.lru.pop_back();
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  template <typename T>
  T Sum(std::atomic<T> Shard::*counter) const {
    T total = 0;
    for (const Shard& shard : shards_) {
      total += (shard.*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  Shard& ShardFor(const std::string& key) {
    return shards_[Fnv1a64(key) % shards_.size()];
  }

  size_t per_shard_capacity_;
  size_t per_shard_bytes_;  // 0 = no byte budget
  std::vector<Shard> shards_;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SERVE_SHARDED_LRU_H_
