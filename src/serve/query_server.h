#ifndef VIEWREWRITE_SERVE_QUERY_SERVER_H_
#define VIEWREWRITE_SERVE_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/retry.h"
#include "exec/executor.h"
#include "rewrite/rewriter.h"
#include "serve/answer_cache.h"
#include "serve/overload.h"
#include "serve/serve_stats.h"
#include "serve/synopsis_store.h"
#include "serve/template_cache.h"
#include "sql/token.h"

namespace viewrewrite {

struct ServeOptions {
  /// Worker threads answering queries concurrently.
  size_t num_threads = 4;
  /// Bounded request queue: Submit calls beyond this depth are rejected
  /// with Unavailable instead of growing memory without bound.
  size_t queue_capacity = 1024;
  bool enable_cache = true;
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  /// Byte budget for the answer cache across all shards (keys + entries +
  /// grouped row sets). Grouped answers cache whole row sets, so the
  /// entry-count budget alone no longer bounds memory. 0 disables the
  /// byte budget.
  size_t cache_max_bytes = 8u << 20;
  /// Single-flight coalescing: concurrent requests for the same query
  /// join the computation already in flight instead of re-running
  /// parse→rewrite→match→answer. All waiters of a flight receive the same
  /// value or the same typed error; deadline semantics stay per-waiter.
  /// Flights are keyed per store epoch, so a request admitted after a hot
  /// reload never receives a previous epoch's answer unflagged. Disable to
  /// measure or serve without coalescing.
  bool enable_coalescing = true;
  /// Cells for the sharded stats counters; 0 sizes them automatically
  /// from num_threads and the hardware concurrency.
  size_t stats_cells = 0;
  /// Resource governance for untrusted query input: Submit rejects SQL
  /// larger than `limits.max_sql_bytes` before it ever occupies a queue
  /// slot (counted in ServeStats::rejected_oversized), and the same
  /// limits govern parse and rewrite on the worker (they are copied into
  /// `rewrite.limits` at construction — set them here, not there).
  ResourceLimits limits;
  /// Serve-time rewrite options; must match the options the workload was
  /// prepared with, or structurally identical queries would map to
  /// different view signatures.
  RewriteOptions rewrite;

  // ---- Resilience. ---------------------------------------------------------

  /// Deadline applied to every request that does not carry its own
  /// timeout. Zero means no deadline.
  std::chrono::nanoseconds default_timeout{0};
  /// Retry schedule for transient store-load failures inside Reload (the
  /// bundle read is file I/O). The answer path never retries: answering is
  /// deterministic, so a second attempt would fail the same way.
  RetryPolicy retry;
  /// Circuit breaker over bundle loading (Reload).
  CircuitBreakerOptions store_breaker;

  // ---- Overload control (serve/overload.h). --------------------------------

  /// Adaptive admission limiter, deadline-aware queue discipline,
  /// priority classes and brownout mode. The limiter and brownout are
  /// off by default; the queue discipline is on but self-gating (it only
  /// drops requests whose deadline the service-time estimate says cannot
  /// be met, after the estimator warms up).
  OverloadOptions overload;

  // ---- Synopsis-lifecycle staleness policy. --------------------------------

  /// Per-view generation TTL: an answer that touches a view whose base
  /// relation changed more than this many generations ago without a
  /// successful rebuild is still served, but flagged
  /// `ServedAnswer::outdated` (and counted in
  /// ServeStats::outdated_served). 0, the default, flags any outdatedness
  /// at all — one missed rebuild is enough.
  uint64_t outdated_ttl_generations = 0;

  // ---- Grouped-answer suppression (minimum-frequency rule). ----------------

  /// Groups whose *noisy* count falls below this threshold are suppressed
  /// in grouped answers: the row stays (group keys are public — they come
  /// from the published domain grid, not the data) but its aggregate
  /// columns are nulled and `GroupedRow::suppressed` is set. Suppression
  /// is post-processing of the noisy counts, so it costs no privacy
  /// budget; it guards utility (tiny noisy groups are mostly noise), not
  /// privacy. <= 0 disables suppression.
  double min_group_count = 0;
};

/// One served answer. `stale` marks a brownout response: under sustained
/// overload a shed request is answered from the cache (any epoch) instead
/// of an error; the value is exactly what some bundle produced, just
/// possibly outdated relative to the current one. `attempts` is 1 when
/// this request ran the answer path itself, and 0 when it did not (a
/// cache hit, a brownout answer or a coalesced waiter). `coalesced` marks
/// a request that was resolved by another request's flight (single-flight
/// join or batch dedup) rather than its own computation.
struct ServedAnswer {
  double value = 0;
  bool stale = false;
  uint32_t attempts = 0;
  bool coalesced = false;
  /// Staleness-policy flag: the answer is live (not `stale`) but touched
  /// a view whose base relation changed in a past generation whose
  /// rebuild failed, beyond ServeOptions::outdated_ttl_generations. The
  /// value is still exactly what the current bundle serves — `outdated`
  /// is provenance, not degradation. A `stale` answer never sets it (its
  /// originating entry's lifecycle is unknown).
  bool outdated = false;
  /// Store epoch and republish generation the answer was computed (or,
  /// for `stale`, browned out) under.
  uint64_t epoch = 0;
  uint64_t generation = 0;
  /// Grouped answers: the row set (group keys, noisy aggregates, per-row
  /// noisy counts and suppression flags — suppression already applied
  /// under ServeOptions::min_group_count). Null for scalar answers. For a
  /// grouped answer `value` is the row count, kept so every downstream
  /// consumer of the scalar field stays meaningful. Shared and immutable:
  /// cache hits and coalesced waiters all hand out the same object.
  std::shared_ptr<const aggregate::GroupedData> rows;
};

/// Concurrent query answering over a loaded SynopsisStore: the operational
/// complement of ViewRewriteEngine. Prepare/Publish runs once, offline,
/// and spends the privacy budget; a QueryServer then serves any number of
/// queries from the published (or reloaded) synopses at zero further
/// privacy cost — answering is deterministic post-processing of the
/// noisy cells.
///
/// Each Submit is answered on a worker thread: parsed, rewritten (Rules
/// 1-20), bound against the stored views via the shared matcher, and
/// answered from the noisy cells. Parse, rewrite, canonical rendering
/// and bind run once per query shape and store epoch: the shape's
/// template (serve/template_cache.h) answers every later text that
/// differs only in lifted literals. A query whose structure no stored
/// view covers fails with NotFound — never a crash, and never a budget
/// spend.
///
/// ## Threading model
///
/// A fixed pool of workers consumes a bounded queue; Submit never blocks
/// (a full queue rejects with Unavailable). The store is an immutable
/// snapshot shared by all workers via shared_ptr (see the Synopsis
/// thread-safety contract); the answer cache is internally striped and
/// locked per stripe; stats counters are sharded per-thread cells
/// (ShardedServeCounters) so the hot path never bounces a shared cache
/// line. Answering draws no randomness, so workers need no per-thread
/// RNG — determinism is what makes the cache and coalescing sound.
///
/// ## Single-flight coalescing
///
/// Answers are deterministic per {store, epoch}, so N concurrent
/// identical requests need exactly one computation. Requests are keyed
/// twice, mirroring the cache:
///
/// - **raw stage** (before parse): requests with identical SQL text and
///   parameters join the flight already computing that text — the
///   duplicates skip parse, rewrite, match *and* answer.
/// - **canonical stage** (after rewrite): a flight that discovers a
///   canonical-equal flight already registered (textual variants that
///   rewrite identically) merges into it and its waiters move over.
///
/// Flight keys include the store epoch: a request admitted after a hot
/// reload starts a fresh flight against the new bundle rather than
/// receiving the old epoch's value unflagged. Every waiter of a flight
/// receives the same value or the same typed error; deadlines are applied
/// per waiter at resolution. A fresh cache hit never consults or creates
/// a flight, and a completing flight writes each of its cache keys
/// exactly once (leader only), no matter how many waiters it resolved.
///
/// ## Batched submission
///
/// SubmitBatch enqueues a whole vector of queries under one queue lock
/// and deduplicates identical texts within the batch: duplicates ride
/// their first occurrence's task as pre-joined waiters, so a batch with
/// D distinct texts costs at most D computations (fewer when flights or
/// the cache absorb them).
///
/// ## Resilience
///
/// - **Deadlines**: each request carries a Deadline from Submit through
///   parse, rewrite, match and answer; expiry at any stage boundary (or
///   while still queued) resolves the future with DeadlineExceeded. A
///   flight's computation runs under the *latest* deadline among its
///   waiters, and each waiter's own deadline is re-checked when the
///   flight resolves (a successful flight still delivers its value —
///   success beats the deadline race, exactly as in the uncoalesced
///   path, where no deadline check follows a successful answer).
/// - **Failure semantics of the answer path**: answering is deterministic
///   post-processing of immutable arrays, so each flight makes exactly
///   one attempt. A failure is typed, shared by every waiter of the flight
///   and never cached; an entry from a previous epoch is never served in
///   its place.
/// - **Overload**: admission limiter, deadline-aware queue discipline,
///   priority classes, and brownout, which serves cached answers flagged
///   `stale` instead of shedding (serve/overload.h).
/// - **Hot reload**: Reload reads the bundle (file I/O, so it retries
///   under `options.retry` behind the store-load circuit breaker) and
///   atomically swaps it in (epoch/RCU-style shared_ptr swap). In-flight
///   queries finish against the epoch they started under; new requests
///   see the new bundle.
/// - **Shutdown**: stops intake, drains every accepted request, joins
///   workers. Coalesced waiters are never abandoned: queued requests
///   resolve through their flight's leader during the drain, and any
///   waiter still registered when the server is destroyed resolves with
///   Unavailable instead of a broken promise.
///
/// ## Cache
///
/// Two-level lookup. The raw key (verbatim SQL + parameters) short-cuts
/// exact resubmissions before any parsing or scanning. On a raw miss the
/// query's canonical key (canonical rewritten SQL + sorted parameters,
/// rewrite/canonical.h) — from its template, or from the literal parse
/// and rewrite — catches queries that differ textually but rewrite to
/// the same canonical form. Successful answers populate both keys tagged
/// with the serving epoch; failures are never cached.
///
/// ## Templates
///
/// Behind the raw probe, a sharded LRU of constant capacity maps a
/// QueryShape key to the template compiled for it, tagged with its store
/// epoch; only a current-epoch entry is used. A hit skips parse, rewrite,
/// canonical rendering and bind, and answers the template's bound query
/// with the lifted literals as `$1 … $n`; its canonical key is the
/// template's canonical SQL with those values spliced in, the same text
/// the literal path renders. A miss runs the literal stages, then
/// compiles the template (without the parse and rewrite fault points,
/// which the literal stages already hit, and not once the flight's
/// deadline has passed); a shape whose template fails to compile, or
/// whose compiling request's canonical SQL it does not reproduce, is
/// pinned to the literal path for the epoch. Reload drops older epochs'
/// templates.
class QueryServer {
 public:
  QueryServer(std::shared_ptr<const SynopsisStore> store, const Schema& schema,
              ServeOptions options = {});

  /// Drains and joins (Shutdown).
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues one query; the future resolves to its answer or a typed
  /// error. Rejected submissions (queue full, server shut down) resolve
  /// immediately with Unavailable — a Submit racing Shutdown always
  /// resolves, it is never abandoned. A request whose deadline is
  /// already expired, or that the overload limiter sheds, also resolves
  /// synchronously (DeadlineExceeded / ResourceExhausted) without ever
  /// occupying a queue slot.
  std::future<Result<ServedAnswer>> Submit(std::string sql,
                                           ParamMap params = {});

  /// Like Submit, but with a per-request deadline `timeout` from now
  /// (<= 0 means no deadline beyond the server default) and a priority
  /// class (strict-priority dequeue; shedding is lowest-class-first).
  std::future<Result<ServedAnswer>> Submit(
      std::string sql, ParamMap params, std::chrono::nanoseconds timeout,
      Priority priority = Priority::kInteractive);

  /// Batched submission: enqueues every query under a single queue lock
  /// and deduplicates identical texts within the batch (`params`, the
  /// deadline and the priority class are shared by all elements).
  /// futures[i] corresponds to sqls[i]. Admission control is per
  /// element: an oversized or limiter-shed element rejects alone; if the
  /// queue fills partway through, the remaining *distinct* texts reject
  /// with Unavailable while duplicates of already accepted texts still
  /// resolve with them.
  std::vector<std::future<Result<ServedAnswer>>> SubmitBatch(
      std::vector<std::string> sqls, ParamMap params = {},
      std::chrono::nanoseconds timeout = std::chrono::nanoseconds(0),
      Priority priority = Priority::kInteractive);

  /// Synchronous convenience: answers on the calling thread, bypassing
  /// the queue (still uses the cache, coalescing and stats; may resolve
  /// other requests' waiters if it leads a flight).
  Result<ServedAnswer> Answer(const std::string& sql,
                              const ParamMap& params = {},
                              std::chrono::nanoseconds timeout =
                                  std::chrono::nanoseconds(0));

  /// Hot reload: loads a fresh bundle from `path` (with retries under the
  /// store breaker), verifies it against the schema, and atomically swaps
  /// it in. In-flight queries finish against the old epoch. On any
  /// failure the old bundle keeps serving and the error is returned.
  Status Reload(const std::string& path);

  /// Hot reload from an already-loaded store (e.g. built in-process).
  Status Reload(std::shared_ptr<const SynopsisStore> store);

  /// Stops accepting work, finishes every queued request, joins workers.
  /// Idempotent and safe to race from multiple threads.
  void Shutdown();

  /// Consistent snapshot of the counters.
  ServeStats stats() const;

  /// Current store snapshot (the epoch being served right now).
  std::shared_ptr<const SynopsisStore> store() const;

  /// Monotonic bundle epoch: 0 for the construction-time store, +1 per
  /// successful Reload.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Coarse overload signal for background work: the admission limiter
  /// is saturated or brownout is active. The Republisher defers
  /// generation rebuilds on it so republishing never competes with live
  /// queries for a saturated server. Always false when the limiter and
  /// brownout are both disabled.
  bool overloaded() const { return overload_.overloaded(); }

  /// Generation-eviction hook for the synopsis lifecycle: drops every
  /// answer-cache entry computed under an epoch older than `min_epoch`
  /// (the Republisher calls this once superseded generations age past the
  /// staleness TTL, freeing the cache stripes for current answers).
  /// Returns the number of entries dropped; no-op without a cache.
  uint64_t EvictCacheBefore(uint64_t min_epoch);

 private:
  struct Task {
    std::string sql;
    ParamMap params;
    Deadline deadline;
    Priority priority = Priority::kInteractive;
    /// When the task entered the queue; the admission-to-dequeue latency
    /// is the adaptive limiter's AIMD control signal.
    std::chrono::steady_clock::time_point enqueue_time;
    std::promise<Result<ServedAnswer>> promise;
    /// Batch-deduped duplicates of this task's sql: resolved together
    /// with the task, sharing its deadline.
    std::vector<std::promise<Result<ServedAnswer>>> followers;
  };

  /// One request waiting on a flight's outcome. The leader's own promise
  /// is waiter #0 of its flight (coalesced = false); joined requests and
  /// batch followers carry coalesced = true.
  struct Waiter {
    std::promise<Result<ServedAnswer>> promise;
    Deadline deadline;
    bool coalesced = false;
  };

  /// One in-flight computation. Registered in `flights_` under its
  /// epoch-qualified raw key and, once the leader has rewritten the
  /// query, also under the epoch-qualified canonical key. `waiters` and
  /// `keys` are guarded by `flights_mu_`; the effective deadline is an
  /// atomic nanosecond timestamp so the leader can poll it lock-free at
  /// stage boundaries while joiners extend it.
  struct Flight {
    std::vector<Waiter> waiters;
    std::vector<std::string> keys;
    std::atomic<int64_t> deadline_ns{kInfiniteDeadlineNs};
    uint64_t epoch = 0;
  };

  /// What a completed flight delivers to every waiter: a value (status
  /// OK) or a typed error, plus the attempts the leader made (0 or 1) and the
  /// snapshot provenance (epoch/generation/outdated flag) every waiter's
  /// ServedAnswer is stamped with. `rows` carries a grouped answer's row
  /// set (null for scalar flights).
  struct FlightOutcome {
    Status status;
    double value = 0;
    uint32_t attempts = 0;
    bool outdated = false;
    uint64_t epoch = 0;
    uint64_t generation = 0;
    std::shared_ptr<const aggregate::GroupedData> rows;
  };

  static constexpr int64_t kInfiniteDeadlineNs =
      std::numeric_limits<int64_t>::max();

  /// The store snapshot a request answers against: pointer + the epoch it
  /// was current at. Taken once per request so a mid-request Reload never
  /// tears a query across two bundles.
  struct StoreSnapshot {
    std::shared_ptr<const SynopsisStore> store;
    uint64_t epoch = 0;
  };
  StoreSnapshot SnapshotStore() const;

  void WorkerLoop();
  /// Admission gate shared by Submit and SubmitBatch: injected
  /// serve.overload faults and the adaptive limiter. False means the
  /// request must be shed (after a brownout probe); true means it holds
  /// a limiter slot (when the limiter is enabled) and may be enqueued.
  bool AdmitTask(Priority priority);
  /// Brownout probe for a shed request: under sustained overload, an
  /// AnswerCache entry for the raw key (any epoch) is served with
  /// `stale = true` instead of the shed error.
  std::optional<ServedAnswer> TryBrownout(const std::string& sql,
                                          const ParamMap& params);
  /// Resolves `task` (and followers) with `r`, recording each outcome.
  void ResolveTask(Task& task, const Result<ServedAnswer>& r);
  /// Full request pipeline for one task (plus followers): cache
  /// short-circuit, flight join-or-lead, compute, resolve.
  void Process(Task task);
  /// Leader computation: template lookup (or parse → rewrite, compiling
  /// the template on a miss) → canonical coalesce/cache → one answer
  /// attempt. Returns nullopt when this flight merged into a
  /// canonical-equal one (its waiters moved over; nothing to resolve
  /// here).
  std::optional<FlightOutcome> ComputeAnswer(const std::shared_ptr<Flight>& f,
                                             const StoreSnapshot& snap,
                                             const std::string& sql,
                                             const ParamMap& params,
                                             const std::string& raw_key);
  /// Compiles the template of `sql` (shape `shape`) against `store` after
  /// its literal rewrite rendered `literal_sql`: parse in template form,
  /// rewrite (Rewriter::RewriteTemplate), check that binding the shape's
  /// values reproduces `literal_sql`, bind. Any failure yields a pinned
  /// template.
  std::shared_ptr<const QueryTemplate> CompileTemplate(
      const std::string& sql, const QueryShape& shape,
      const std::string& literal_sql, const SynopsisStore& store) const;
  /// Deregisters the flight, extracts its waiters and resolves each one
  /// under its own deadline.
  void FinishFlight(const std::shared_ptr<Flight>& flight,
                    const FlightOutcome& out);
  static Result<ServedAnswer> ResolveWaiter(const Waiter& w,
                                            const FlightOutcome& out);
  /// Counts one resolved request (completed/failed and their subsets).
  void RecordOutcome(const Result<ServedAnswer>& r);
  Deadline MakeDeadline(std::chrono::nanoseconds timeout) const;

  static int64_t DeadlineNanos(const Deadline& d);
  static void RelaxFlightDeadline(Flight& flight, const Deadline& d);
  static bool FlightDeadlineExpired(const Flight& flight);

  mutable std::mutex store_mu_;  // guards store_ swap; held only briefly
  std::shared_ptr<const SynopsisStore> store_;
  std::atomic<uint64_t> epoch_{0};

  const Schema& schema_;
  ServeOptions options_;
  Rewriter rewriter_;
  std::unique_ptr<AnswerCache> cache_;  // null when disabled
  TemplateCache templates_;
  CircuitBreaker store_breaker_;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  PriorityTaskQueue<Task> queue_;
  bool stopping_ = false;
  std::mutex join_mu_;  // serializes the join phase of concurrent Shutdowns

  std::mutex flights_mu_;  // guards flights_ and every Flight's shared state
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  std::vector<std::thread> workers_;

  mutable OverloadController overload_;
  mutable ShardedServeCounters counters_;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SERVE_QUERY_SERVER_H_
