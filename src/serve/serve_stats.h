#ifndef VIEWREWRITE_SERVE_SERVE_STATS_H_
#define VIEWREWRITE_SERVE_SERVE_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

namespace viewrewrite {

/// Counters of one QueryServer's lifetime. A consistent snapshot is
/// returned by QueryServer::stats(); the server maintains the fields in
/// sharded per-core cells (ShardedServeCounters below) aggregated at
/// snapshot time. Overload and degradation are first-class here: every
/// rejection, shed, brownout answer, store-load retry, breaker event and
/// reload is counted, so a degraded server is observable rather than
/// silently slow.
struct ServeStats {
  uint64_t submitted = 0;      // Submit calls accepted into the queue
  uint64_t completed = 0;      // answered successfully (including stale)
  uint64_t failed = 0;         // finished with a non-OK status
  uint64_t rejected_queue_full = 0;  // subset of rejected: bounded queue full
  uint64_t rejected_shutdown = 0;    // subset of rejected: server shut down
  uint64_t rejected_oversized = 0;   // subset of rejected: SQL over the
                                     // ServeOptions::limits size cap
  uint64_t rejected_expired = 0;     // subset of rejected: the request's
                                     // deadline had already expired at Submit
                                     // (resolved synchronously, also counted
                                     // failed + deadline_exceeded)
  /// Refused at Submit (full / shut down / oversized / already expired).
  uint64_t rejected() const {
    return rejected_queue_full + rejected_shutdown + rejected_oversized +
           rejected_expired;
  }
  uint64_t unmatched = 0;      // no stored view could answer (subset of failed)
  uint64_t deadline_exceeded = 0;  // requests past deadline (subset of failed)
  uint64_t expired_in_queue = 0;   // subset of deadline_exceeded: the request
                                   // timed out before a worker picked it up
  uint64_t retries = 0;            // extra store-load attempts inside Reload
  uint64_t breaker_rejected = 0;   // reloads fast-failed by the open store
                                   // breaker
  uint64_t breaker_trips = 0;      // store breaker closed->open transitions
  uint64_t outdated_served = 0;  // successful answers that touched a view the
                                 // staleness policy flags outdated (its base
                                 // relation changed in a generation whose
                                 // rebuild failed, beyond the configured TTL)
  uint64_t reloads = 0;            // successful hot bundle swaps
  uint64_t reload_failures = 0;    // Reload calls that kept the old bundle
  uint64_t epoch = 0;              // current store epoch (0 = initial bundle)
  uint64_t generation = 0;         // republish generation of the bundle being
                                   // served (0 = initial publication)

  // ---- Overload control (serve/overload.h). --------------------------------
  uint64_t shed_admission = 0;  // requests shed by the admission limiter (or
                                // an injected serve.overload fault) before
                                // taking a queue slot; resolved fast with
                                // ResourceExhausted, never counted submitted
  uint64_t shed_hopeless = 0;   // accepted requests dropped at dequeue because
                                // the remaining deadline budget could not
                                // cover the service-time estimate (subset of
                                // deadline_exceeded)
  uint64_t shed_displaced = 0;  // accepted requests evicted from a full queue
                                // by a higher-priority arrival (resolved with
                                // ResourceExhausted, counted failed)
  /// The shed channels inside the conservation law.
  uint64_t shed_queue() const { return shed_hopeless + shed_displaced; }
  uint64_t brownout_served = 0;  // sheds converted into stale cache answers by
                                 // brownout mode (counted completed, never
                                 // submitted); the only stale answers
  double limiter_limit = 0;       // adaptive concurrency limit at snapshot
  uint64_t limiter_in_flight = 0;  // admitted-but-unfinished requests held by
                                   // the limiter at snapshot
  bool brownout_active = false;   // brownout window active at snapshot
  double service_estimate_seconds = 0;  // EWMA per-computation service time

  // ---- Single-flight coalescing and batching. ------------------------------
  // Conservation law (asserted by the chaos harness): every accepted
  // request resolves through exactly one of the channels below, so
  //   flights + coalesced_waiters + cache_short_circuits + expired_in_queue
  //     + shed_hopeless + shed_displaced == submitted.
  uint64_t flights = 0;            // answer-path computations started (leaders)
  uint64_t coalesced_waiters = 0;  // requests that joined an in-flight
                                   // computation instead of starting one
                                   // (includes batch-deduped duplicates)
  uint64_t merged_flights = 0;     // flights that discovered a canonical-equal
                                   // flight after rewrite and merged into it
                                   // (subset of flights)
  uint64_t max_flight_group = 0;   // largest single flight: leader + waiters
                                   // resolved by one computation (1 = never
                                   // coalesced)
  uint64_t cache_short_circuits = 0;  // requests resolved by a fresh raw-key
                                      // cache hit before any flight was
                                      // consulted
  uint64_t batch_queries = 0;      // queries accepted via SubmitBatch
  uint64_t batch_deduped = 0;      // subset of batch_queries deduplicated
                                   // within their batch (subset of
                                   // coalesced_waiters)

  // ---- Grouped serving. ----------------------------------------------------
  uint64_t grouped_queries = 0;   // grouped (GROUP BY) answer computations
                                  // that succeeded on the answer path
                                  // (cache hits of grouped answers are not
                                  // recounted here)
  uint64_t suppressed_groups = 0;  // groups whose noisy count fell below
                                   // ServeOptions::min_group_count and were
                                   // suppressed (summed across grouped
                                   // computations)

  // ---- Query templates (serve/template_cache.h). ---------------------------
  uint64_t template_hits = 0;  // answer-path computations that reused a
                               // cached template: no parse, rewrite,
                               // canonical rendering or bind
  uint64_t template_pins = 0;  // query shapes pinned to the literal path for
                               // their epoch because their template did not
                               // compile or did not reproduce the literal
                               // rewrite

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;  // LRU evictions across all stripes
  size_t cache_entries = 0;    // resident cache entries at snapshot time
  size_t cache_bytes = 0;      // accounted payload bytes resident (keys +
                               // entries + grouped row sets)
  size_t cache_stripes = 0;    // stripe (shard) count of the answer cache
  /// Total wall time spent answering across workers (sums over threads, so
  /// it can exceed elapsed time under concurrency).
  double answer_seconds = 0;
};

std::ostream& operator<<(std::ostream& os, const ServeStats& s);

/// The counters a QueryServer bumps on its hot path, identifying slots in
/// a ShardedServeCounters. Kept separate from ServeStats (the aggregated
/// snapshot) so the hot path indexes an array instead of naming fields.
enum class ServeCounter : size_t {
  kSubmitted = 0,
  kCompleted,
  kFailed,
  kRejectedQueueFull,
  kRejectedShutdown,
  kRejectedOversized,
  kUnmatched,
  kDeadlineExceeded,
  kExpiredInQueue,
  kRetries,
  kOutdatedServed,
  kReloads,
  kReloadFailures,
  kFlights,
  kCoalescedWaiters,
  kMergedFlights,
  kCacheShortCircuits,
  kBatchQueries,
  kBatchDeduped,
  kGroupedQueries,
  kSuppressedGroups,
  kAnswerNanos,
  kRejectedExpired,
  kShedAdmission,
  kShedHopeless,
  kShedDisplaced,
  kBrownoutServed,
  kTemplateHits,
  kTemplatePins,
  kNumCounters,  // sentinel
};

/// Contention-free statistics: one cache-line-aligned cell of counters per
/// hardware-thread slot, written with relaxed atomics and summed only at
/// snapshot time. Replaces a single bank of shared atomics whose cache
/// lines every worker bounced on — under N workers each thread now bumps
/// its own cell, so counter updates never contend.
///
/// Threads are assigned cells round-robin on first use (a process-wide
/// thread slot hashed over this instance's cell count), so two servers in
/// one process still isolate their hot threads. Totals are exact: every
/// increment lands in exactly one cell and snapshot sums all cells. The
/// snapshot is racy only in the same benign way the old atomics were —
/// counters keep moving while being summed.
class ShardedServeCounters {
 public:
  /// `cells` is clamped to >= 1; pass roughly the number of threads that
  /// will write concurrently (extra cells cost 64B each).
  explicit ShardedServeCounters(size_t cells);

  ShardedServeCounters(const ShardedServeCounters&) = delete;
  ShardedServeCounters& operator=(const ShardedServeCounters&) = delete;

  /// Adds `n` to `c` in the calling thread's cell. Never contends with
  /// other threads' cells.
  void Add(ServeCounter c, uint64_t n = 1);

  /// Records a completed flight's group size (leader + coalesced waiters)
  /// into the calling thread's cell-local running maximum.
  void NoteFlightGroup(uint64_t size);

  /// Exact total of `c` across all cells.
  uint64_t Total(ServeCounter c) const;

  /// Largest flight group observed by any cell.
  uint64_t MaxFlightGroup() const;

  size_t num_cells() const { return num_cells_; }

  /// Per-cell values of `c`, for tests that assert the sharding actually
  /// distributes writes.
  std::vector<uint64_t> PerCell(ServeCounter c) const;

 private:
  // Each cell starts on its own cache line; alignas rounds the struct
  // size up so neighboring cells never share a line.
  struct alignas(64) Cell {
    std::atomic<uint64_t> count[static_cast<size_t>(
        ServeCounter::kNumCounters)];
    std::atomic<uint64_t> max_flight_group;
  };

  Cell& CellForThisThread();

  size_t num_cells_;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SERVE_SERVE_STATS_H_
