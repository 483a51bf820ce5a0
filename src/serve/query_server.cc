#include "serve/query_server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "aggregate/suppression.h"
#include "common/fault_injection.h"
#include "rewrite/canonical.h"
#include "sql/parser.h"
#include "sql/token.h"

namespace viewrewrite {

namespace {

/// Rewrite options with the server-level governance limits stamped in, so
/// one ServeOptions::limits knob governs admission, parse and rewrite.
RewriteOptions WithLimits(RewriteOptions rewrite, const ResourceLimits& l) {
  rewrite.limits = l;
  return rewrite;
}

std::string RawCacheKey(const std::string& sql, const ParamMap& params) {
  std::string key = "r|";
  key += sql;
  AppendParamKey(params, &key);
  return key;
}

/// Cells for the sharded counters: enough that the configured workers
/// plus a few caller threads (Answer, Reload, stats) land on distinct
/// cells, capped so an over-threaded config does not waste memory.
size_t StatsCells(const ServeOptions& options) {
  if (options.stats_cells > 0) return options.stats_cells;
  const size_t hw = std::thread::hardware_concurrency();
  const size_t want = std::max(options.num_threads + 2, hw);
  return std::min<size_t>(std::max<size_t>(1, want), 64);
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Deadline::Clock::now().time_since_epoch())
      .count();
}

/// Staleness policy: an answer is flagged outdated when any view it binds
/// has missed rebuilds for more than `ttl` generations (see
/// ServeOptions::outdated_ttl_generations).
bool TouchesOutdatedView(const SynopsisStore& store,
                         const BoundRewrittenQuery& bound, uint64_t ttl) {
  for (const auto& link : bound.chain) {
    if (store.OutdatedGenerations(link.query.view_signature) > ttl) {
      return true;
    }
  }
  for (const auto& term : bound.terms) {
    if (store.OutdatedGenerations(term.query.view_signature) > ttl) {
      return true;
    }
  }
  return false;
}

/// A grouped query (single GROUP BY term, no chain) answers row-wise.
bool IsGroupedAnswer(const BoundRewrittenQuery& bound) {
  return bound.chain.empty() && bound.terms.size() == 1 &&
         bound.terms[0].query.cell_query != nullptr &&
         !bound.terms[0].query.cell_query->group_by.empty();
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<const SynopsisStore> store,
                         const Schema& schema, ServeOptions options)
    : store_(std::move(store)),
      schema_(schema),
      options_(options),
      rewriter_(schema_, WithLimits(options.rewrite, options.limits)),
      store_breaker_(options.store_breaker),
      overload_(options.overload),
      counters_(StatsCells(options)) {
  options_.rewrite.limits = options_.limits;
  if (options_.num_threads == 0) options_.num_threads = 1;
  if (options_.enable_cache) {
    cache_ = std::make_unique<AnswerCache>(options_.cache_capacity,
                                           options_.cache_shards,
                                           options_.cache_max_bytes);
  }
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryServer::~QueryServer() {
  Shutdown();
  // Defensive sweep: by the time the workers are joined every flight has
  // resolved its waiters (leaders run to completion during the drain), so
  // this finds nothing in practice — but a promise must never be
  // destroyed unresolved, so any straggler gets a typed Unavailable
  // rather than a broken_promise exception at the caller.
  std::vector<Waiter> orphans;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    for (auto& [key, flight] : flights_) {
      for (Waiter& w : flight->waiters) orphans.push_back(std::move(w));
      flight->waiters.clear();
    }
    flights_.clear();
  }
  for (Waiter& w : orphans) {
    Result<ServedAnswer> r{Status::Unavailable(
        "query server shut down while the request was coalesced in flight")};
    RecordOutcome(r);
    w.promise.set_value(std::move(r));
  }
}

void QueryServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Serialize the join phase: concurrent Shutdown calls (user thread
  // racing the destructor, two explicit callers) each wait here until the
  // workers are down, instead of racing joinable()/join() on the same
  // std::thread objects.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

QueryServer::StoreSnapshot QueryServer::SnapshotStore() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return {store_, epoch_.load(std::memory_order_acquire)};
}

std::shared_ptr<const SynopsisStore> QueryServer::store() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return store_;
}

Deadline QueryServer::MakeDeadline(std::chrono::nanoseconds timeout) const {
  if (timeout != std::chrono::nanoseconds(0)) {
    // A negative timeout is already expired — deterministic timeout-path
    // testing without sleeping.
    return Deadline::After(timeout);
  }
  if (options_.default_timeout > std::chrono::nanoseconds(0)) {
    return Deadline::After(options_.default_timeout);
  }
  return Deadline::Infinite();
}

int64_t QueryServer::DeadlineNanos(const Deadline& d) {
  if (d.infinite()) return kInfiniteDeadlineNs;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             d.when().time_since_epoch())
      .count();
}

void QueryServer::RelaxFlightDeadline(Flight& flight, const Deadline& d) {
  const int64_t ns = DeadlineNanos(d);
  int64_t seen = flight.deadline_ns.load(std::memory_order_relaxed);
  while (ns > seen && !flight.deadline_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
}

bool QueryServer::FlightDeadlineExpired(const Flight& flight) {
  const int64_t ns = flight.deadline_ns.load(std::memory_order_relaxed);
  if (ns == kInfiniteDeadlineNs) return false;
  return NowNanos() >= ns;
}

std::future<Result<ServedAnswer>> QueryServer::Submit(std::string sql,
                                                      ParamMap params) {
  return Submit(std::move(sql), std::move(params), std::chrono::nanoseconds(0));
}

bool QueryServer::AdmitTask(Priority priority) {
  // Injected sheds (serve.overload faults) and the adaptive limiter share
  // one admission gate. A fault-forced shed feeds the brownout window but
  // takes no limiter slot; a limiter shed is recorded inside Admit.
  if (FaultInjection::Armed() &&
      !FaultInjection::Instance().Check(faults::kServeOverload).ok()) {
    overload_.RecordShed();
    return false;
  }
  if (!options_.overload.limiter.enabled) return true;
  return overload_.Admit(priority);
}

std::optional<ServedAnswer> QueryServer::TryBrownout(const std::string& sql,
                                                     const ParamMap& params) {
  if (!options_.overload.enable_brownout || cache_ == nullptr) {
    return std::nullopt;
  }
  if (!overload_.brownout_active()) return std::nullopt;
  std::optional<AnswerCache::Entry> hit = cache_->Get(RawCacheKey(sql, params));
  if (!hit.has_value()) return std::nullopt;
  // Any epoch qualifies: brownout is the degradation path, so the answer
  // is flagged stale even when the entry happens to be current — the
  // caller learns it was served from cache under pressure, not computed.
  const StoreSnapshot snap = SnapshotStore();
  return ServedAnswer{hit->value,  /*stale=*/true,
                      0,           /*coalesced=*/false,
                      /*outdated=*/false, snap.epoch,
                      snap.store->generation(), hit->rows};
}

void QueryServer::ResolveTask(Task& task, const Result<ServedAnswer>& r) {
  for (auto& follower : task.followers) {
    RecordOutcome(r);
    follower.set_value(r);
  }
  RecordOutcome(r);
  task.promise.set_value(r);
}

std::future<Result<ServedAnswer>> QueryServer::Submit(
    std::string sql, ParamMap params, std::chrono::nanoseconds timeout,
    Priority priority) {
  Task task;
  task.sql = std::move(sql);
  task.params = std::move(params);
  task.deadline = MakeDeadline(timeout);
  task.priority = priority;
  std::future<Result<ServedAnswer>> future = task.promise.get_future();
  // Admission control: oversized SQL is refused before it occupies a
  // queue slot or a worker — the cheapest point to stop a hostile
  // payload, and the check the tokenizer would make anyway.
  if (task.sql.size() > options_.limits.max_sql_bytes) {
    counters_.Add(ServeCounter::kRejectedOversized);
    task.promise.set_value(Status::ResourceExhausted(
        "query of " + std::to_string(task.sql.size()) +
        " bytes exceeds the limit (" +
        std::to_string(options_.limits.max_sql_bytes) + ")"));
    return future;
  }
  // An already-expired deadline resolves synchronously: queueing it would
  // burn a slot (and a worker's dequeue) on an answer nobody is waiting
  // for. Counted like a worker-side expiry (failed + deadline_exceeded)
  // but never submitted.
  if (task.deadline.expired()) {
    counters_.Add(ServeCounter::kRejectedExpired);
    Result<ServedAnswer> r{Status::DeadlineExceeded(
        "request deadline already expired at submit")};
    RecordOutcome(r);
    task.promise.set_value(std::move(r));
    return future;
  }
  // Overload admission: shed before the request occupies a queue slot,
  // answering from the cache instead when brownout is active.
  if (!AdmitTask(task.priority)) {
    if (std::optional<ServedAnswer> browned =
            TryBrownout(task.sql, task.params)) {
      counters_.Add(ServeCounter::kBrownoutServed);
      Result<ServedAnswer> r{std::move(*browned)};
      RecordOutcome(r);
      task.promise.set_value(std::move(r));
      return future;
    }
    counters_.Add(ServeCounter::kShedAdmission);
    task.promise.set_value(Status::ResourceExhausted(
        "overloaded: admission limiter shed the request"));
    return future;
  }
  const bool limited = options_.overload.limiter.enabled;
  std::optional<Task> displaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      counters_.Add(ServeCounter::kRejectedShutdown);
      if (limited) overload_.Release();
      task.promise.set_value(
          Status::Unavailable("query server is shut down"));
      return future;
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Displacement: prefer evicting the youngest strictly-lower-class
      // queued request over refusing a higher-class arrival.
      displaced = queue_.DisplaceLowerThan(task.priority);
      if (!displaced.has_value()) {
        counters_.Add(ServeCounter::kRejectedQueueFull);
        if (limited) overload_.Release();
        task.promise.set_value(Status::Unavailable(
            "request queue full (" + std::to_string(options_.queue_capacity) +
            " pending)"));
        return future;
      }
    }
    counters_.Add(ServeCounter::kSubmitted);
    task.enqueue_time = std::chrono::steady_clock::now();
    queue_.Push(task.priority, std::move(task));
  }
  queue_cv_.notify_one();
  if (displaced.has_value()) {
    // The displaced request was accepted (counted submitted), so it
    // resolves through the shed_displaced conservation channel and its
    // limiter slot frees up for the arrival that evicted it.
    overload_.RecordShed();
    counters_.Add(ServeCounter::kShedDisplaced);
    if (limited) overload_.Release();
    ResolveTask(*displaced,
                Result<ServedAnswer>{Status::ResourceExhausted(
                    "overloaded: displaced from the queue by a "
                    "higher-priority request")});
  }
  return future;
}

std::vector<std::future<Result<ServedAnswer>>> QueryServer::SubmitBatch(
    std::vector<std::string> sqls, ParamMap params,
    std::chrono::nanoseconds timeout, Priority priority) {
  const Deadline deadline = MakeDeadline(timeout);
  std::vector<std::future<Result<ServedAnswer>>> futures;
  futures.reserve(sqls.size());

  // The batch shares one deadline; if it is already expired every element
  // resolves synchronously — exactly like the single-Submit fast reject.
  if (deadline.expired()) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      std::promise<Result<ServedAnswer>> promise;
      futures.push_back(promise.get_future());
      counters_.Add(ServeCounter::kRejectedExpired);
      Result<ServedAnswer> r{Status::DeadlineExceeded(
          "request deadline already expired at submit")};
      RecordOutcome(r);
      promise.set_value(std::move(r));
    }
    return futures;
  }

  // Dedup within the batch: the first occurrence of a text becomes a
  // task, later occurrences ride it as followers — they resolve with the
  // task's single computation.
  std::vector<Task> tasks;
  std::unordered_map<std::string, size_t> first;  // sql -> index in tasks
  for (std::string& sql : sqls) {
    std::promise<Result<ServedAnswer>> promise;
    futures.push_back(promise.get_future());
    if (sql.size() > options_.limits.max_sql_bytes) {
      counters_.Add(ServeCounter::kRejectedOversized);
      promise.set_value(Status::ResourceExhausted(
          "query of " + std::to_string(sql.size()) +
          " bytes exceeds the limit (" +
          std::to_string(options_.limits.max_sql_bytes) + ")"));
      continue;
    }
    auto it = first.find(sql);
    if (it != first.end()) {
      tasks[it->second].followers.push_back(std::move(promise));
      continue;
    }
    first.emplace(sql, tasks.size());
    Task task;
    task.sql = std::move(sql);
    task.params = params;
    task.deadline = deadline;
    task.priority = priority;
    task.promise = std::move(promise);
    tasks.push_back(std::move(task));
  }

  // Overload admission per distinct task, outside the queue lock (the
  // brownout probe touches the cache). A shed task sheds its followers
  // with it — they were deduplicated onto its computation.
  const bool limited = options_.overload.limiter.enabled;
  std::vector<Task> admitted;
  admitted.reserve(tasks.size());
  for (Task& task : tasks) {
    const uint64_t group = 1 + task.followers.size();
    if (AdmitTask(task.priority)) {
      admitted.push_back(std::move(task));
      continue;
    }
    if (std::optional<ServedAnswer> browned =
            TryBrownout(task.sql, task.params)) {
      counters_.Add(ServeCounter::kBrownoutServed, group);
      ResolveTask(task, Result<ServedAnswer>{std::move(*browned)});
      continue;
    }
    counters_.Add(ServeCounter::kShedAdmission, group);
    Result<ServedAnswer> shed{Status::ResourceExhausted(
        "overloaded: admission limiter shed the request")};
    for (auto& follower : task.followers) follower.set_value(shed);
    task.promise.set_value(std::move(shed));
  }

  // Enqueue every admitted task under one queue lock — the batch pays one
  // lock round-trip, and its tasks land contiguously. Admission control
  // stays per task; a rejected task rejects its followers with it.
  std::vector<std::pair<Task, Status>> rejected;
  std::vector<Task> displaced;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Task& task : admitted) {
      const uint64_t group = 1 + task.followers.size();
      if (stopping_) {
        counters_.Add(ServeCounter::kRejectedShutdown, group);
        if (limited) overload_.Release();
        rejected.emplace_back(std::move(task),
                              Status::Unavailable("query server is shut down"));
        continue;
      }
      if (queue_.size() >= options_.queue_capacity) {
        std::optional<Task> evicted = queue_.DisplaceLowerThan(task.priority);
        if (!evicted.has_value()) {
          counters_.Add(ServeCounter::kRejectedQueueFull, group);
          if (limited) overload_.Release();
          rejected.emplace_back(
              std::move(task),
              Status::Unavailable("request queue full (" +
                                  std::to_string(options_.queue_capacity) +
                                  " pending)"));
          continue;
        }
        displaced.push_back(std::move(*evicted));
      }
      counters_.Add(ServeCounter::kSubmitted, group);
      counters_.Add(ServeCounter::kBatchQueries, group);
      if (!task.followers.empty()) {
        // Followers are coalesced at admission: they will never start a
        // computation of their own, which is exactly what
        // ServeStats::coalesced_waiters counts.
        counters_.Add(ServeCounter::kBatchDeduped, task.followers.size());
        counters_.Add(ServeCounter::kCoalescedWaiters, task.followers.size());
      }
      task.enqueue_time = now;
      queue_.Push(task.priority, std::move(task));
    }
  }
  queue_cv_.notify_all();
  for (Task& task : displaced) {
    overload_.RecordShed();
    counters_.Add(ServeCounter::kShedDisplaced);
    if (limited) overload_.Release();
    ResolveTask(task, Result<ServedAnswer>{Status::ResourceExhausted(
                          "overloaded: displaced from the queue by a "
                          "higher-priority request")});
  }
  for (auto& [task, status] : rejected) {
    for (auto& follower : task.followers) follower.set_value(status);
    task.promise.set_value(status);
  }
  return futures;
}

void QueryServer::WorkerLoop() {
  const bool limited = options_.overload.limiter.enabled;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: every accepted Submit holds a
      // promise that must resolve.
      if (queue_.empty()) return;
      task = queue_.Pop();
    }
    if (limited) {
      // Queue latency (admission to dequeue) is the AIMD control signal.
      overload_.OnDequeue(std::chrono::steady_clock::now() -
                          task.enqueue_time);
    }
    if (task.deadline.expired()) {
      // Expired while queued: resolve without touching the answer path,
      // and the worker simply moves to the next request. Followers share
      // the batch deadline, so they expire with the task (they were
      // already counted coalesced at admission; the task itself resolves
      // through the expired-in-queue channel).
      counters_.Add(ServeCounter::kExpiredInQueue);
      ResolveTask(task, Result<ServedAnswer>{Status::DeadlineExceeded(
                            "request deadline expired while queued")});
    } else if (overload_.Hopeless(task.deadline)) {
      // Deadline-aware queue discipline: the remaining budget cannot
      // cover the estimated service time, so computing the answer would
      // only burn a worker on a request that dies of expiry anyway.
      overload_.RecordShed();
      counters_.Add(ServeCounter::kShedHopeless);
      ResolveTask(task,
                  Result<ServedAnswer>{Status::DeadlineExceeded(
                      "request dropped at dequeue: remaining deadline cannot "
                      "cover the estimated service time")});
    } else {
      Process(std::move(task));
    }
    if (limited) overload_.Release();
  }
}

Result<ServedAnswer> QueryServer::Answer(const std::string& sql,
                                         const ParamMap& params,
                                         std::chrono::nanoseconds timeout) {
  counters_.Add(ServeCounter::kSubmitted);
  Task task;
  task.sql = sql;
  task.params = params;
  task.deadline = MakeDeadline(timeout);
  std::future<Result<ServedAnswer>> future = task.promise.get_future();
  // Runs the full pipeline on the calling thread. If this request joins
  // another thread's flight the get() blocks until that leader resolves
  // it; leaders themselves never block on other flights, so this cannot
  // deadlock.
  Process(std::move(task));
  return future.get();
}

void QueryServer::Process(Task task) {
  // One snapshot per request: a mid-request Reload never tears a query
  // across two bundles, and cache writes are tagged with the epoch the
  // answer was actually computed under.
  const StoreSnapshot snap = SnapshotStore();

  // Raw-key probe before any parsing. A fresh hit resolves the request
  // (and its batch followers) without consulting the flight table at all;
  // an old-epoch entry is never served here.
  const std::string raw_key = RawCacheKey(task.sql, task.params);
  if (cache_) {
    if (std::optional<AnswerCache::Entry> hit = cache_->Get(raw_key)) {
      if (hit->epoch == snap.epoch) {
        counters_.Add(ServeCounter::kCacheShortCircuits);
        const uint64_t generation = snap.store->generation();
        for (auto& follower : task.followers) {
          Result<ServedAnswer> r{ServedAnswer{hit->value, false, 0,
                                              /*coalesced=*/true,
                                              hit->outdated, snap.epoch,
                                              generation, hit->rows}};
          RecordOutcome(r);
          follower.set_value(std::move(r));
        }
        Result<ServedAnswer> r{ServedAnswer{hit->value, false, 0,
                                            /*coalesced=*/false, hit->outdated,
                                            snap.epoch, generation, hit->rows}};
        RecordOutcome(r);
        task.promise.set_value(std::move(r));
        return;
      }
    }
  }

  // The request and its followers become waiters on a flight: either one
  // already computing this exact text under this epoch, or a new one this
  // request leads.
  std::vector<Waiter> members;
  members.reserve(1 + task.followers.size());
  {
    Waiter w;
    w.promise = std::move(task.promise);
    w.deadline = task.deadline;
    members.push_back(std::move(w));
  }
  for (auto& follower : task.followers) {
    Waiter w;
    w.promise = std::move(follower);
    w.deadline = task.deadline;
    w.coalesced = true;
    members.push_back(std::move(w));
  }

  std::shared_ptr<Flight> flight;
  if (options_.enable_coalescing) {
    // Flight keys are epoch-qualified: a duplicate admitted after a hot
    // reload must not receive the previous epoch's answer unflagged, so
    // it starts a fresh flight against the new bundle instead of joining
    // the old one.
    std::string flight_key = std::to_string(snap.epoch);
    flight_key += '|';
    flight_key += raw_key;
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(flight_key);
    if (it != flights_.end()) {
      Flight& lead = *it->second;
      RelaxFlightDeadline(lead, task.deadline);
      counters_.Add(ServeCounter::kCoalescedWaiters);
      members[0].coalesced = true;
      for (Waiter& w : members) lead.waiters.push_back(std::move(w));
      return;
    }
    flight = std::make_shared<Flight>();
    flight->epoch = snap.epoch;
    flight->deadline_ns.store(DeadlineNanos(task.deadline),
                              std::memory_order_relaxed);
    for (Waiter& w : members) flight->waiters.push_back(std::move(w));
    flight->keys.push_back(flight_key);
    flights_.emplace(std::move(flight_key), flight);
  } else {
    flight = std::make_shared<Flight>();
    flight->epoch = snap.epoch;
    flight->deadline_ns.store(DeadlineNanos(task.deadline),
                              std::memory_order_relaxed);
    for (Waiter& w : members) flight->waiters.push_back(std::move(w));
  }

  counters_.Add(ServeCounter::kFlights);
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<FlightOutcome> out =
      ComputeAnswer(flight, snap, task.sql, task.params, raw_key);
  const auto dt = std::chrono::steady_clock::now() - t0;
  counters_.Add(
      ServeCounter::kAnswerNanos,
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  // Service-time estimate behind the hopeless-drop discipline: wall time
  // per leader computation — exactly what a queued request is in for.
  overload_.RecordServiceTime(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt));
  // nullopt: this flight merged into a canonical-equal one after rewrite;
  // its waiters (including this request) now belong to that leader.
  if (!out.has_value()) return;
  // Every outcome of this flight was computed under `snap`; stamp the
  // provenance every waiter's ServedAnswer will carry.
  out->epoch = snap.epoch;
  out->generation = snap.store->generation();
  FinishFlight(flight, *out);
}

std::optional<QueryServer::FlightOutcome> QueryServer::ComputeAnswer(
    const std::shared_ptr<Flight>& flight, const StoreSnapshot& snap,
    const std::string& sql, const ParamMap& params,
    const std::string& raw_key) {
  // The computation runs under the flight's *effective* deadline — the
  // latest among its waiters, extended lock-free as joiners arrive — so a
  // leader with a tight deadline never strands a waiter that had time
  // left. Each waiter's own deadline is re-applied at resolution.
  if (FlightDeadlineExpired(*flight)) {
    return FlightOutcome{
        Status::DeadlineExceeded("request deadline expired before parse")};
  }
  // Template lookup: a text whose shape compiled under this epoch skips
  // parse, rewrite, canonical rendering and bind. On a miss (or a pinned
  // shape, or a text without a shape) the literal stages run as they
  // always have, and a miss then compiles the shape's template.
  QueryShape shape;
  const bool shaped = MakeQueryShape(sql, options_.limits, &shape);
  std::shared_ptr<const QueryTemplate> tmpl;
  if (shaped) {
    std::optional<CachedTemplate> cached = templates_.Get(shape.key);
    if (cached.has_value() && cached->epoch == snap.epoch) {
      tmpl = std::move(cached->tmpl);
    }
  }
  const bool compile = shaped && tmpl == nullptr;
  std::optional<RewrittenQuery> literal;
  std::string canonical_key = "c|";
  if (tmpl == nullptr || tmpl->pinned) {
    Result<SelectStmtPtr> stmt = ParseSelect(sql, options_.limits);
    if (!stmt.ok()) return FlightOutcome{stmt.status()};
    if (FlightDeadlineExpired(*flight)) {
      return FlightOutcome{
          Status::DeadlineExceeded("request deadline expired after parse")};
    }
    Result<RewrittenQuery> rq = rewriter_.Rewrite(**stmt);
    if (!rq.ok()) return FlightOutcome{rq.status()};
    if (FlightDeadlineExpired(*flight)) {
      return FlightOutcome{
          Status::DeadlineExceeded("request deadline expired after rewrite")};
    }
    literal = std::move(*rq);
    canonical_key += CanonicalRewrittenSql(*literal);
    tmpl = nullptr;
  } else {
    counters_.Add(ServeCounter::kTemplateHits);
    AppendCanonicalSql(*tmpl, shape.params, &canonical_key);
  }
  const size_t canonical_sql_end = canonical_key.size();
  AppendParamKey(params, &canonical_key);

  if (options_.enable_coalescing) {
    // Second coalescing stage: textual variants that rewrite to the same
    // canonical form. If a canonical-equal flight is already registered,
    // this flight's waiters move over and the computation stops here;
    // otherwise this flight claims the canonical key as an alias so later
    // variants find it.
    std::string canonical_flight_key = std::to_string(snap.epoch);
    canonical_flight_key += '|';
    canonical_flight_key += canonical_key;
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(canonical_flight_key);
    if (it != flights_.end() && it->second != flight) {
      Flight& target = *it->second;
      for (Waiter& w : flight->waiters) {
        RelaxFlightDeadline(target, w.deadline);
        w.coalesced = true;
        target.waiters.push_back(std::move(w));
      }
      flight->waiters.clear();
      for (const std::string& k : flight->keys) flights_.erase(k);
      flight->keys.clear();
      counters_.Add(ServeCounter::kMergedFlights);
      return std::nullopt;
    }
    if (it == flights_.end()) {
      flight->keys.push_back(canonical_flight_key);
      flights_.emplace(std::move(canonical_flight_key), flight);
    }
  }

  // A flight out of time answers without compiling; the shape's next
  // request compiles it.
  if (compile && !FlightDeadlineExpired(*flight)) {
    // Compiled once this flight's canonical key is registered, so a
    // canonical-equal variant arriving meanwhile still merges into it.
    // The literal canonical SQL (the key without its parameter part) is
    // what the template must reproduce.
    tmpl = CompileTemplate(sql, shape,
                           canonical_key.substr(2, canonical_sql_end - 2),
                           *snap.store);
    templates_.Put(shape.key, CachedTemplate{snap.epoch, tmpl});
    if (tmpl->pinned) {
      counters_.Add(ServeCounter::kTemplatePins);
      tmpl = nullptr;
    }
  }

  if (cache_) {
    if (std::optional<AnswerCache::Entry> hit = cache_->Get(canonical_key);
        hit.has_value() && hit->epoch == snap.epoch) {
      FlightOutcome out{Status::OK(), hit->value, 0, hit->outdated};
      out.rows = hit->rows;
      return out;
    }
  }

  // The single answer attempt: fault point, bind against the snapshot,
  // answer from the stored noisy cells. Answering is deterministic, so a
  // failure here is final for the whole flight and nothing is cached. The
  // engine registers with a null bake predicate; binding with the same
  // predicate reproduces the register-time signatures. A grouped query
  // (single GROUP BY term, no chain) answers row-wise: suppression runs
  // here, once per computation, so cached and coalesced consumers all see
  // the identical filtered row set; the scalar `value` of a grouped
  // answer is its row count.
  //
  // A template answers from its compiled plan with its lifted values
  // bound by position to `$1 … $n`; a literal query compiles a plan for
  // this request. Every other slot binds by name from the request's own
  // parameters (no SQL text can name a numeric parameter, so the two
  // never collide).
  bool outdated = false;
  std::shared_ptr<const aggregate::GroupedData> rows;
  auto answer = [&]() -> Result<double> {
    VR_FAULT_POINT(faults::kServeAnswer);
    BoundRewrittenQuery literal_bound;
    QueryPlan literal_plan;
    const QueryPlan* plan = &literal_plan;
    bool grouped = false;
    if (tmpl != nullptr) {
      outdated = tmpl->outdated;
      grouped = tmpl->grouped;
      plan = &tmpl->plan;
    } else {
      VR_ASSIGN_OR_RETURN(literal_bound, snap.store->Bind(*literal, nullptr));
      outdated = TouchesOutdatedView(*snap.store, literal_bound,
                                     options_.outdated_ttl_generations);
      grouped = IsGroupedAnswer(literal_bound);
      literal_plan = snap.store->Compile(literal_bound, {});
    }
    std::vector<const Value*> values = BindByName(plan->layout, params);
    if (tmpl != nullptr) {
      for (size_t k = 0; k < shape.params.size(); ++k) {
        values[k] = &shape.params[k];
      }
    }
    // The answer-stage counters time running the plan alone.
    auto timed = [&](ServeCounter calls, ServeCounter nanos, auto&& call) {
      const auto start = std::chrono::steady_clock::now();
      auto result = call();
      counters_.Add(calls);
      counters_.Add(nanos, static_cast<uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count()));
      return result;
    };
    if (!grouped) {
      return timed(ServeCounter::kAnswerScalarCalls,
                   ServeCounter::kAnswerScalarNanos,
                   [&] { return AnswerPlan(*plan, std::move(values)); });
    }
    VR_ASSIGN_OR_RETURN(
        aggregate::GroupedData data,
        timed(ServeCounter::kAnswerGroupedCalls,
              ServeCounter::kAnswerGroupedNanos,
              [&] { return plan->terms[0].plan.AnswerGrouped(values); }));
    const size_t suppressed = aggregate::ApplySuppression(
        aggregate::SuppressionPolicy{options_.min_group_count}, &data);
    counters_.Add(ServeCounter::kGroupedQueries);
    if (suppressed > 0) {
      counters_.Add(ServeCounter::kSuppressedGroups, suppressed);
    }
    const double row_count = static_cast<double>(data.rows.size());
    rows = std::make_shared<const aggregate::GroupedData>(std::move(data));
    return row_count;
  };
  Result<double> got = answer();
  if (!got.ok()) return FlightOutcome{got.status()};
  if (cache_) {
    // The leader writes each key exactly once per flight, no matter how
    // many waiters resolve with it.
    cache_->Put(canonical_key, *got, snap.epoch, outdated, rows);
    cache_->Put(raw_key, *got, snap.epoch, outdated, rows);
  }
  FlightOutcome out{Status::OK(), *got, /*attempts=*/1, outdated};
  out.rows = std::move(rows);
  return out;
}

std::shared_ptr<const QueryTemplate> QueryServer::CompileTemplate(
    const std::string& sql, const QueryShape& shape,
    const std::string& literal_sql, const SynopsisStore& store) const {
  auto pinned = [] {
    auto p = std::make_shared<QueryTemplate>();
    p->pinned = true;
    return p;
  };
  Result<SelectStmtPtr> stmt = ParseSelectTemplate(sql, options_.limits);
  if (!stmt.ok()) return pinned();
  Result<RewrittenQuery> rq = rewriter_.RewriteTemplate(**stmt);
  if (!rq.ok()) return pinned();
  auto tmpl = std::make_shared<QueryTemplate>();
  SplitCanonicalSql(CanonicalRewrittenSql(*rq), shape.params.size(),
                    tmpl.get());
  // The template must rewrite exactly as the literal query did: same
  // terms, same order, same chain. Equal canonical SQL is the cache's own
  // criterion for bit-identical answers.
  std::string bound_sql;
  AppendCanonicalSql(*tmpl, shape.params, &bound_sql);
  if (bound_sql != literal_sql) return pinned();
  Result<BoundRewrittenQuery> bound = store.Bind(*rq, nullptr);
  if (!bound.ok()) return pinned();
  tmpl->bound = std::move(*bound);
  // The lifted values take the first slots, `$k` slot k - 1.
  ParamLayout layout;
  for (size_t k = 1; k <= shape.params.size(); ++k) {
    layout.Add(std::to_string(k));
  }
  tmpl->plan = store.Compile(tmpl->bound, std::move(layout));
  tmpl->grouped = IsGroupedAnswer(tmpl->bound);
  tmpl->outdated = TouchesOutdatedView(store, tmpl->bound,
                                       options_.outdated_ttl_generations);
  return tmpl;
}

void QueryServer::FinishFlight(const std::shared_ptr<Flight>& flight,
                               const FlightOutcome& out) {
  std::vector<Waiter> waiters;
  {
    // Deregister before resolving: once the keys are gone, a new
    // duplicate starts a fresh flight (or hits the cache the leader just
    // populated) instead of joining a completed one.
    std::lock_guard<std::mutex> lock(flights_mu_);
    for (const std::string& k : flight->keys) flights_.erase(k);
    flight->keys.clear();
    waiters = std::move(flight->waiters);
    flight->waiters.clear();
  }
  counters_.NoteFlightGroup(waiters.size());
  for (Waiter& w : waiters) {
    Result<ServedAnswer> r = ResolveWaiter(w, out);
    RecordOutcome(r);
    w.promise.set_value(std::move(r));
  }
}

Result<ServedAnswer> QueryServer::ResolveWaiter(const Waiter& w,
                                                const FlightOutcome& out) {
  // Per-waiter resolution of the shared outcome. On success the value is
  // delivered regardless of the waiter's deadline — success beats the
  // deadline race, exactly as in the uncoalesced path where no deadline
  // check follows a successful answer. Coalesced waiters report zero
  // attempts: they made none themselves. On failure, a waiter whose own
  // deadline has passed reports the expiry; every other waiter receives
  // the flight's typed error.
  if (out.status.ok()) {
    return ServedAnswer{out.value,     /*stale=*/false,
                        w.coalesced ? 0 : out.attempts,
                        w.coalesced,   out.outdated,
                        out.epoch,     out.generation,
                        out.rows};
  }
  if (w.deadline.expired()) {
    return Status::DeadlineExceeded("request deadline expired");
  }
  return out.status;
}

void QueryServer::RecordOutcome(const Result<ServedAnswer>& r) {
  if (r.ok()) {
    counters_.Add(ServeCounter::kCompleted);
    if (r->outdated) counters_.Add(ServeCounter::kOutdatedServed);
  } else {
    counters_.Add(ServeCounter::kFailed);
    if (r.status().code() == StatusCode::kNotFound) {
      counters_.Add(ServeCounter::kUnmatched);
    } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
      counters_.Add(ServeCounter::kDeadlineExceeded);
    }
  }
}

Status QueryServer::Reload(const std::string& path) {
  auto load_fresh = [&]() -> Result<std::shared_ptr<const SynopsisStore>> {
    VR_FAULT_POINT(faults::kServeReload);
    Backoff backoff(options_.retry, Fnv1a64(path));
    const uint32_t max_attempts = std::max(1u, options_.retry.max_attempts);
    Status last;
    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
      if (!store_breaker_.Allow()) {
        return Status::Unavailable(
            "store-load circuit breaker is open; reload rejected");
      }
      Result<SynopsisStore> loaded =
          SynopsisStore::Load(path, schema_, options_.limits);
      if (loaded.ok()) {
        store_breaker_.RecordSuccess();
        return std::make_shared<const SynopsisStore>(std::move(*loaded));
      }
      last = loaded.status();
      store_breaker_.RecordFailure();
      if (!IsRetryableStatus(last.code())) return last;
      if (attempt < max_attempts) {
        counters_.Add(ServeCounter::kRetries);
        std::this_thread::sleep_for(backoff.Next());
      }
    }
    return last;
  };
  Result<std::shared_ptr<const SynopsisStore>> fresh = load_fresh();
  if (!fresh.ok()) {
    counters_.Add(ServeCounter::kReloadFailures);
    return fresh.status();
  }
  return Reload(std::move(fresh).value());
}

Status QueryServer::Reload(std::shared_ptr<const SynopsisStore> store) {
  if (store == nullptr) {
    counters_.Add(ServeCounter::kReloadFailures);
    return Status::InvalidArgument("cannot reload a null store");
  }
  const uint64_t expected = SchemaFingerprint(schema_);
  if (store->schema_fingerprint() != expected) {
    counters_.Add(ServeCounter::kReloadFailures);
    return Status::InvalidArgument(
        "schema drift: replacement bundle was built against a different "
        "schema (fingerprint " + std::to_string(store->schema_fingerprint()) +
        ", current schema " + std::to_string(expected) + ")");
  }
  {
    // RCU-style swap: in-flight requests keep their shared_ptr snapshot
    // and finish against the old epoch; the old store is destroyed when
    // the last such request drops its reference.
    std::lock_guard<std::mutex> lock(store_mu_);
    store_ = std::move(store);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Templates are bound to the store they were compiled against.
  templates_.EvictOlderThan(epoch());
  counters_.Add(ServeCounter::kReloads);
  return Status::OK();
}

uint64_t QueryServer::EvictCacheBefore(uint64_t min_epoch) {
  if (!cache_) return 0;
  return cache_->EvictOlderThan(min_epoch);
}

ServeStats QueryServer::stats() const {
  ServeStats s;
  s.submitted = counters_.Total(ServeCounter::kSubmitted);
  s.completed = counters_.Total(ServeCounter::kCompleted);
  s.failed = counters_.Total(ServeCounter::kFailed);
  s.rejected_queue_full = counters_.Total(ServeCounter::kRejectedQueueFull);
  s.rejected_shutdown = counters_.Total(ServeCounter::kRejectedShutdown);
  s.rejected_oversized = counters_.Total(ServeCounter::kRejectedOversized);
  s.rejected_expired = counters_.Total(ServeCounter::kRejectedExpired);
  s.shed_admission = counters_.Total(ServeCounter::kShedAdmission);
  s.shed_hopeless = counters_.Total(ServeCounter::kShedHopeless);
  s.shed_displaced = counters_.Total(ServeCounter::kShedDisplaced);
  s.brownout_served = counters_.Total(ServeCounter::kBrownoutServed);
  s.limiter_limit = overload_.limiter().limit();
  s.limiter_in_flight = overload_.limiter().in_flight();
  s.brownout_active = overload_.brownout_active();
  s.service_estimate_seconds =
      static_cast<double>(overload_.service_estimate().count()) * 1e-9;
  s.unmatched = counters_.Total(ServeCounter::kUnmatched);
  s.deadline_exceeded = counters_.Total(ServeCounter::kDeadlineExceeded);
  s.expired_in_queue = counters_.Total(ServeCounter::kExpiredInQueue);
  s.retries = counters_.Total(ServeCounter::kRetries);
  s.breaker_trips = store_breaker_.trips();
  s.breaker_rejected = store_breaker_.rejections();
  s.outdated_served = counters_.Total(ServeCounter::kOutdatedServed);
  s.reloads = counters_.Total(ServeCounter::kReloads);
  s.reload_failures = counters_.Total(ServeCounter::kReloadFailures);
  s.epoch = epoch_.load(std::memory_order_acquire);
  s.generation = store()->generation();
  s.flights = counters_.Total(ServeCounter::kFlights);
  s.coalesced_waiters = counters_.Total(ServeCounter::kCoalescedWaiters);
  s.merged_flights = counters_.Total(ServeCounter::kMergedFlights);
  s.max_flight_group = counters_.MaxFlightGroup();
  s.cache_short_circuits = counters_.Total(ServeCounter::kCacheShortCircuits);
  s.batch_queries = counters_.Total(ServeCounter::kBatchQueries);
  s.batch_deduped = counters_.Total(ServeCounter::kBatchDeduped);
  s.grouped_queries = counters_.Total(ServeCounter::kGroupedQueries);
  s.suppressed_groups = counters_.Total(ServeCounter::kSuppressedGroups);
  s.template_hits = counters_.Total(ServeCounter::kTemplateHits);
  s.template_pins = counters_.Total(ServeCounter::kTemplatePins);
  if (cache_) {
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
    s.cache_evictions = cache_->evictions();
    s.cache_entries = cache_->size();
    s.cache_bytes = cache_->byte_size();
    s.cache_stripes = cache_->num_stripes();
  }
  s.answer_seconds =
      static_cast<double>(counters_.Total(ServeCounter::kAnswerNanos)) * 1e-9;
  s.answer_scalar_calls = counters_.Total(ServeCounter::kAnswerScalarCalls);
  s.answer_scalar_nanos = counters_.Total(ServeCounter::kAnswerScalarNanos);
  s.answer_grouped_calls = counters_.Total(ServeCounter::kAnswerGroupedCalls);
  s.answer_grouped_nanos = counters_.Total(ServeCounter::kAnswerGroupedNanos);
  return s;
}

}  // namespace viewrewrite
