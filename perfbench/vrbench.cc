// The repository benchmark: one process that sets up a publication,
// drives one named workload for a fixed time, checks every answer against
// a single-threaded oracle, and prints its metrics as one JSON line.
//
//   vrbench --workload serve_cold|serve_hot --seed N --seconds S
//           --trace 0|1 --run-dir DIR [--git-sha SHA] [--source-digest D]
//
// Set-up, repeated kSetupReps times: generate the TPC-H data, publish W5
// (Prepare with a durable budget WAL, FromManager, Save), load the bundle
// back and start the server. Workloads (the seed draws the traffic; the
// data and the publish seed are fixed):
//   serve_cold  closed loop, nproc callers, ~5k distinct W1-W5 texts with
//               fresh constants plus a 10% grouped slice, answer cache
//               sized to a tenth of the working set.
//   serve_hot   closed loop, nproc callers, Zipf(1) over W1's distinct
//               texts; caller 0 hot-reloads between two published
//               generations every kReloadEvery of its own requests.
// The serve window is cut into kSliceSeconds slices with a short
// all-caller speed probe between them (see "Machine-speed normalization").
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the per-layer metrics. A traced run spends the first half of its window
// untraced and the second half traced, and reports the difference as
// trace.overhead_pct. Stage spans (parse, rewrite, canonical key, bind,
// answer, synopsis build, WAL append) come from calling the same public
// functions on the same inputs from this file, right after the real call
// that ran them inside the library; see perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aggregate/suppression.h"
#include "datagen/tpch.h"
#include "dp/budget_wal.h"
#include "engine/viewrewrite_engine.h"
#include "rewrite/canonical.h"
#include "serve/query_server.h"
#include "serve/synopsis_store.h"
#include "sql/parser.h"
#include "trace.h"
#include "workload/workload.h"

#ifndef VRBENCH_BUILD_TYPE
#define VRBENCH_BUILD_TYPE "unknown"
#endif

namespace vrbench {
namespace {

using namespace viewrewrite;

constexpr uint64_t kPublishSeed = 20250805;
constexpr int kPublishWorkload = 5;
constexpr double kEpsilon = 8.0;
constexpr double kLifetimeEpsilon = 16.0;
constexpr double kGenerationEpsilon = 4.0;
constexpr double kMinGroupCount = 20.0;
constexpr int kSetupReps = 11;
// Serve metrics are measured per slice of the window and reported as the
// median slice, so a burst of contention from outside the process moves
// a few slices rather than the result.
constexpr double kSliceSeconds = 0.5;
constexpr size_t kWarmupSlices = 2;
// Strings the per-slice probe kernel sorts, and its time on the reference
// machine.
constexpr size_t kSliceProbeStrings = 5000;
constexpr double kSliceProbeReferenceMs = 3.6;
constexpr size_t kReloadEvery = 20000;
constexpr size_t kSequenceLength = size_t{1} << 18;
constexpr int64_t kPriceStep = 4096;  // o_totalprice bucket width
constexpr int kGroupedHavingMax = 60;
// Traced runs give every kTraceEvery-th request of each caller a request
// span and, when it ran the answer path, the stage decomposition.
constexpr size_t kTraceEvery = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;
  std::string git_sha = "none";
  std::string source_digest = "none";
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "vrbench: %s\n", msg.c_str());
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

template <typename T>
T Check(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == kPublishSeed ? z ^ 1 : z;  // traffic never reuses the publish seed
}

// ---- Machine-speed normalization -------------------------------------------
//
// The shared machine's speed drifts by tens of percent over minutes. The
// benchmark therefore times a fixed CPU kernel of its own (no library
// code) next to what it measures, and reports some metrics in
// reference-machine units, t / slowdown, where slowdown is the kernel's
// time over its time on the reference machine:
//   - publish_s and setup_s: each set-up rep is scaled by the mean of the
//     probes taken just before and just after it (single-threaded, like
//     the publication).
//   - serve_cold qps and latencies: after every slice all callers stop at
//     a barrier and run the kernel at once; the slice is scaled by the
//     median of their times. Its requests are mostly answer-path compute,
//     which the kernel tracks.
//   - serve_hot is reported as measured: its requests are mostly
//     cross-thread hand-offs, which the kernel does not track (scaling
//     doubled their spread).
// Raw values and the slowdowns are kept in the run envelope.

constexpr double kProbeReferenceMs = 15.0;

/// The probe kernel: format, index and sort `n` short strings. Returns
/// the time it took in milliseconds and adds to `sink` so the work is kept.
double ProbeKernelMs(size_t n, size_t salt, size_t* sink) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> keys;
  keys.reserve(n);
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string((i * 7919 + salt) % 100003));
    index.emplace(keys.back(), i);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& k : keys) *sink += k.size() * index[k];
  return SecondsSince(t0) * 1e3;
}

class SpeedProbe {
 public:
  /// Times the kernel on 20k strings three times and keeps the fastest
  /// rep, the one least disturbed by bursts.
  void Sample() {
    double best = std::numeric_limits<double>::max();
    for (size_t rep = 0; rep < 3; ++rep) {
      best = std::min(best, ProbeKernelMs(20000, rep, &sink_));
    }
    if (sink_ == 0) Die("probe kernel computed nothing");
    samples_ms_.push_back(best);
  }

  /// How much slower than the reference the machine ran during this run.
  double Slowdown() const { return Median(samples_ms_) / kProbeReferenceMs; }
  /// How much slower than the reference the machine ran between samples
  /// `i` and `i + 1`.
  double SlowdownAround(size_t i) const {
    return 0.5 * (samples_ms_.at(i) + samples_ms_.at(i + 1)) / kProbeReferenceMs;
  }
  size_t samples() const { return samples_ms_.size(); }

 private:
  std::vector<double> samples_ms_;
  size_t sink_ = 0;  // read above, so the kernel's work is kept
};

// ---- Inputs -----------------------------------------------------------------

/// The grouped slice, after the micro_benchmarks answer set (GROUP BY
/// COUNT, AVG ... HAVING, VARIANCE) with a price filter so its constants
/// vary like the scalar templates' do.
std::string GroupedSql(int kind, int64_t price, int64_t having) {
  const std::string tail = " FROM orders o WHERE o.o_totalprice >= " +
                           std::to_string(price) + " GROUP BY o_orderstatus";
  switch (kind) {
    case 0:
      return "SELECT o_orderstatus, COUNT(*)" + tail;
    case 1:
      return "SELECT o_orderstatus, AVG(o_totalprice)" + tail +
             " HAVING COUNT(*) >= " + std::to_string(having);
    default:
      return "SELECT o_orderstatus, VARIANCE(o_totalprice)" + tail;
  }
}

std::vector<std::string> WorkloadTexts(int w, uint64_t seed) {
  auto queries = Check(WorkloadGenerator(1, seed).Generate(w), "workload");
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (WorkloadQuery& q : queries) out.push_back(std::move(q.sql));
  return out;
}

/// W5 at the publish seed plus one registration of each grouped template.
std::vector<std::string> PublishedWorkload() {
  std::vector<std::string> sql = WorkloadTexts(kPublishWorkload, kPublishSeed);
  for (int kind = 0; kind < 3; ++kind) {
    sql.push_back(GroupedSql(kind, 8 * kPriceStep, 2));
  }
  return sql;
}

/// Distinct texts in first-seen order.
void AppendDistinct(const std::vector<std::string>& in,
                    std::set<std::string>* seen,
                    std::vector<std::string>* out) {
  for (const std::string& s : in) {
    if (seen->insert(s).second) out->push_back(s);
  }
}

// ---- Answers and the oracle -------------------------------------------------

struct Answer {
  double value = 0;
  std::shared_ptr<const aggregate::GroupedData> rows;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    return a.is_double() && b.is_double() &&
           SameBits(a.AsDoubleExact(), b.AsDoubleExact());
  }
  return a == b;
}

bool SameRows(const aggregate::GroupedData& a, const aggregate::GroupedData& b) {
  if (a.columns != b.columns || a.is_aggregate != b.is_aggregate ||
      a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    const aggregate::GroupedRow& x = a.rows[i];
    const aggregate::GroupedRow& y = b.rows[i];
    if (x.suppressed != y.suppressed || !SameBits(x.noisy_count, y.noisy_count) ||
        x.values.size() != y.values.size()) {
      return false;
    }
    for (size_t j = 0; j < x.values.size(); ++j) {
      if (!SameValue(x.values[j], y.values[j])) return false;
    }
  }
  return true;
}

/// Bit-identical comparison of two answers.
bool SameAnswer(double value, const aggregate::GroupedData* rows,
                const Answer& want) {
  if (!SameBits(value, want.value)) return false;
  if ((rows == nullptr) != (want.rows == nullptr)) return false;
  return rows == nullptr || SameRows(*rows, *want.rows);
}

/// A served answer matches the reference when it is live and identical.
bool Matches(const ServedAnswer& got, const Answer& want) {
  return !got.stale && SameAnswer(got.value, got.rows.get(), want);
}

/// The server's per-request pipeline, called stage by stage: parse,
/// rewrite, canonical key, bind, answer (with suppression for grouped
/// queries). Untraced it is the oracle's reference; traced it is the
/// stage decomposition of a served request.
Result<Answer> RunPipeline(const std::string& sql, const SynopsisStore& store,
                           const Rewriter& rewriter, Tracer::Buffer* tb,
                           uint32_t parent, uint64_t request,
                           std::string* canonical_key = nullptr) {
  SelectStmtPtr stmt;
  {
    ScopedSpan s(tb, SpanName::kParse, parent, request);
    VR_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  }
  RewrittenQuery rq;
  {
    ScopedSpan s(tb, SpanName::kRewrite, parent, request);
    VR_ASSIGN_OR_RETURN(rq, rewriter.Rewrite(*stmt));
  }
  {
    ScopedSpan s(tb, SpanName::kCanonicalKey, parent, request);
    std::string key = CanonicalCacheKey(rq, {});
    if (canonical_key != nullptr) *canonical_key = std::move(key);
  }
  BoundRewrittenQuery bound;
  {
    ScopedSpan s(tb, SpanName::kBind, parent, request);
    VR_ASSIGN_OR_RETURN(bound, store.Bind(rq, nullptr));
  }
  const bool grouped = bound.chain.empty() && bound.terms.size() == 1 &&
                       bound.terms[0].query.cell_query != nullptr &&
                       !bound.terms[0].query.cell_query->group_by.empty();
  Answer out;
  if (grouped) {
    ScopedSpan s(tb, SpanName::kAnswerGrouped, parent, request);
    VR_ASSIGN_OR_RETURN(aggregate::GroupedData data,
                        store.AnswerGrouped(bound.terms[0].query, {}));
    aggregate::ApplySuppression(aggregate::SuppressionPolicy{kMinGroupCount},
                                &data);
    out.value = static_cast<double>(data.rows.size());
    out.rows = std::make_shared<const aggregate::GroupedData>(std::move(data));
  } else {
    ScopedSpan s(tb, SpanName::kAnswerScalar, parent, request);
    VR_ASSIGN_OR_RETURN(out.value, store.Answer(bound, {}));
  }
  return out;
}

struct Reference {
  std::vector<Answer> answers;  // index-aligned with the traffic texts
  size_t canonical_keys = 0;
};

/// Reference answers for `texts` against one generation's store. Any
/// failure — NotFound included — is fatal: fresh-constant traffic must
/// always bind.
Reference ComputeReference(const std::vector<std::string>& texts,
                           const SynopsisStore& store, const Schema& schema) {
  Rewriter rewriter(schema);
  Reference ref;
  ref.answers.reserve(texts.size());
  std::set<std::string> keys;
  for (const std::string& sql : texts) {
    std::string key;
    Result<Answer> a = RunPipeline(sql, store, rewriter, nullptr, 0, 0, &key);
    if (!a.ok()) Die("reference answer for `" + sql + "`: " + a.status().ToString());
    keys.insert(std::move(key));
    ref.answers.push_back(std::move(a).value());
  }
  ref.canonical_keys = keys.size();
  return ref;
}

// ---- Publication ------------------------------------------------------------

struct Paths {
  std::string bundle, bundle_gen1, wal, shadow_wal, spans;
};

struct Publication {
  std::unique_ptr<ViewRewriteEngine> engine;
  std::shared_ptr<const SynopsisStore> snapshot;  // in-memory FromManager
  Synopsis::BuildStats view_totals;  // summed over views
  uint64_t bundle_bytes = 0;
  double seconds = 0;
};

EngineOptions PublishOptions(const std::string& wal_path) {
  EngineOptions o;
  o.epsilon = kEpsilon;
  o.lifetime_epsilon = kLifetimeEpsilon;
  o.seed = kPublishSeed;
  o.strict = true;
  o.budget_wal_path = wal_path;
  return o;
}

/// One curator publication: Prepare with a fresh durable budget WAL, the
/// FromManager snapshot, and the durable Save. Checks the ledger.
Result<Publication> Publish(const Database& db,
                            const std::vector<std::string>& workload,
                            const Paths& paths, Tracer::Buffer* tb) {
  std::filesystem::remove(paths.wal);
  std::filesystem::remove(paths.bundle);
  Publication out;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan root(tb, SpanName::kPublish);
    out.engine = std::make_unique<ViewRewriteEngine>(
        db, PrivacyPolicy{"orders"}, PublishOptions(paths.wal));
    {
      ScopedSpan s(tb, SpanName::kPrepare, root.id());
      VR_RETURN_NOT_OK(out.engine->Prepare(workload));
    }
    {
      ScopedSpan s(tb, SpanName::kSnapshot, root.id());
      VR_ASSIGN_OR_RETURN(SynopsisStore snap, SynopsisStore::FromManager(
                                                  out.engine->views(),
                                                  db.schema()));
      out.snapshot = std::make_shared<const SynopsisStore>(std::move(snap));
    }
    {
      ScopedSpan s(tb, SpanName::kSave, root.id());
      VR_RETURN_NOT_OK(out.snapshot->Save(paths.bundle));
    }
  }
  out.seconds = SecondsSince(t0);
  out.bundle_bytes = std::filesystem::file_size(paths.bundle);
  for (const Synopsis::BuildStats& b : out.engine->views().BuildStatsList()) {
    out.view_totals.materialized_rows += b.materialized_rows;
    out.view_totals.truncated_rows += b.truncated_rows;
    out.view_totals.cells += b.cells;
  }
  const SynopsisStore::LedgerSummary& ledger = out.snapshot->ledger();
  const BudgetWal* wal = out.engine->budget_wal();
  if (ledger.poisoned || !(ledger.spent_epsilon > 0) ||
      ledger.spent_epsilon > ledger.total_epsilon || wal == nullptr ||
      wal->SpentEpsilon() > ledger.total_epsilon) {
    return Status::Internal("budget ledger violates spent <= total");
  }
  return out;
}

/// Stage decomposition of a publication (traced runs only): the parse and
/// rewrite of every workload text, then per view the durable WAL append
/// and Synopsis::Build with the view's uniform budget slice — the calls
/// Prepare makes inside the library, repeated here with spans around them.
void ShadowPublish(const Database& db, const ViewRewriteEngine& engine,
                   const std::vector<std::string>& workload,
                   const Paths& paths, Tracer::Buffer* tb) {
  Rewriter rewriter(db.schema());
  for (const std::string& sql : workload) {
    SelectStmtPtr stmt;
    {
      ScopedSpan s(tb, SpanName::kParse);
      stmt = Check(ParseSelect(sql), "shadow parse");
    }
    ScopedSpan s(tb, SpanName::kRewrite);
    Check(rewriter.Rewrite(*stmt), "shadow rewrite");
  }
  std::filesystem::remove(paths.shadow_wal);
  std::unique_ptr<BudgetWal> wal = Check(
      BudgetWal::Open(paths.shadow_wal, kLifetimeEpsilon), "shadow WAL open");
  const auto& views = engine.views().views();
  const double eps = kEpsilon / static_cast<double>(views.size());
  Random rng(kPublishSeed);
  for (const auto& view : views) {
    {
      ScopedSpan s(tb, SpanName::kWalAppend);
      Check(wal->AppendSpend(eps, "synopsis:" + view->signature()),
            "shadow WAL append");
    }
    ScopedSpan s(tb, SpanName::kBuild);
    Check(Synopsis::Build(*view, db, PrivacyPolicy{"orders"}, eps,
                          SynopsisOptions{}, &rng),
          "shadow synopsis build");
  }
  wal.reset();
  std::filesystem::remove(paths.shadow_wal);
}

/// The paper's metric over the published workload: median over its queries
/// of |y - ŷ| / max(50, y), exact view answers as y. Scalar queries only;
/// answers are computed once per distinct text and weighted by count.
double MedianRelativeError(ViewRewriteEngine& engine,
                           const std::vector<std::string>& workload) {
  std::map<std::string, std::pair<size_t, size_t>> first_and_count;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto [it, inserted] = first_and_count.try_emplace(workload[i], i, 0);
    ++it->second.second;
  }
  std::vector<std::pair<double, size_t>> weighted;
  size_t total = 0;
  for (const auto& [sql, fc] : first_and_count) {
    if (engine.IsGrouped(fc.first)) continue;
    weighted.emplace_back(Check(engine.RelativeError(fc.first), "relative error"),
                          fc.second);
    total += fc.second;
  }
  std::sort(weighted.begin(), weighted.end());
  size_t seen = 0;
  for (const auto& [err, n] : weighted) {
    seen += n;
    if (2 * seen >= total) return err;
  }
  return 0;
}

// ---- Set-up -----------------------------------------------------------------

ServeOptions MakeServeOptions(size_t cache_capacity) {
  ServeOptions o;
  o.num_threads = std::max(1u, std::thread::hardware_concurrency());
  if (cache_capacity > 0) o.cache_capacity = cache_capacity;
  o.min_group_count = kMinGroupCount;
  return o;
}

/// Everything a workload runs against. Declaration order is teardown
/// order in reverse: the server goes first, the database last.
struct Setup {
  std::unique_ptr<Database> db;
  Publication pub;
  std::shared_ptr<const SynopsisStore> gen0;  // loaded from the bundle
  std::shared_ptr<const SynopsisStore> gen1;  // serve_hot only
  std::unique_ptr<QueryServer> server;
  double relative_error = 0;
};

struct SetupTimes {
  std::vector<double> setup_s, publish_s;  // raw, one per rep
  uint64_t bundle_bytes = 0;
};

/// One set-up: generate the database, publish, load the bundle back,
/// start the server (serve_hot also publishes generation 1). Only the
/// relative-error pass of the last rep sits outside the timed span.
std::unique_ptr<Setup> RunSetup(const std::string& workload, const Paths& paths,
                                const std::vector<std::string>& published,
                                size_t cache_capacity, bool last,
                                Tracer::Buffer* tb, SetupTimes* times) {
  auto s = std::make_unique<Setup>();
  Clock::time_point t0 = Clock::now();
  s->db = GenerateTpch(TpchConfig{});
  s->pub = Check(Publish(*s->db, published, paths, tb), "publish");
  double elapsed = SecondsSince(t0);
  if (last) {
    s->relative_error = MedianRelativeError(*s->pub.engine, published);
    if (tb != nullptr) ShadowPublish(*s->db, *s->pub.engine, published, paths, tb);
  }
  t0 = Clock::now();
  {
    ScopedSpan span(tb, SpanName::kLoad);
    s->gen0 = std::make_shared<const SynopsisStore>(
        Check(SynopsisStore::Load(paths.bundle, s->db->schema()), "load"));
  }
  if (last && tb != nullptr) {
    // Answer the published grouped queries once, so every workload's
    // trace has grouped-answer spans (serve_hot serves none).
    const auto sample_start = Clock::now();
    Rewriter rewriter(s->db->schema());
    for (int kind = 0; kind < 3; ++kind) {
      Check(RunPipeline(GroupedSql(kind, 8 * kPriceStep, 2), *s->gen0,
                        rewriter, tb, 0, 0),
            "grouped answers");
    }
    t0 += Clock::now() - sample_start;
  }
  if (workload == "serve_hot") {
    auto outcome = Check(s->pub.engine->RepublishChanged(
                             {"orders"}, kGenerationEpsilon, 1),
                         "republish");
    SynopsisStore::GenerationInfo info;
    info.generation = 1;
    info.generation_epsilon = outcome.epsilon_spent;
    info.changed_relations = {"orders"};
    SynopsisStore snap = Check(SynopsisStore::FromManager(
                                   s->pub.engine->views(), s->db->schema(), info),
                               "generation 1 snapshot");
    Check(snap.Save(paths.bundle_gen1), "generation 1 save");
    s->gen1 = std::make_shared<const SynopsisStore>(Check(
        SynopsisStore::Load(paths.bundle_gen1, s->db->schema()), "load gen1"));
  }
  s->server = std::make_unique<QueryServer>(s->gen0, s->db->schema(),
                                            MakeServeOptions(cache_capacity));
  elapsed += SecondsSince(t0);
  times->setup_s.push_back(elapsed);
  times->publish_s.push_back(s->pub.seconds);
  times->bundle_bytes = s->pub.bundle_bytes;
  return s;
}

// ---- Closed-loop serving ----------------------------------------------------

struct Traffic {
  std::vector<std::string> texts;
  std::vector<std::vector<uint32_t>> per_client;  // indices into texts
  size_t grouped_texts = 0;
};

Traffic ColdTraffic(uint64_t seed, size_t clients) {
  Traffic t;
  std::set<std::string> seen;
  for (uint64_t round = 0; round < 2; ++round) {
    for (int w = 1; w <= 5; ++w) {
      AppendDistinct(WorkloadTexts(w, Mix(seed, round * 8 + w)), &seen, &t.texts);
    }
  }
  const size_t scalar = t.texts.size();
  std::vector<std::string> grouped;
  for (int kind = 0; kind < 3; ++kind) {
    for (int64_t p = 1; p < 16; ++p) {
      if (kind == 1) {
        for (int h = 1; h <= kGroupedHavingMax; ++h) {
          grouped.push_back(GroupedSql(kind, p * kPriceStep, h));
        }
      } else {
        grouped.push_back(GroupedSql(kind, p * kPriceStep, 0));
      }
    }
  }
  AppendDistinct(grouped, &seen, &t.texts);
  t.grouped_texts = t.texts.size() - scalar;
  const auto scalar_last = static_cast<int64_t>(scalar) - 1;
  const auto grouped_last = static_cast<int64_t>(t.grouped_texts) - 1;
  for (size_t c = 0; c < clients; ++c) {
    Random rng(Mix(seed, 100 + c));
    std::vector<uint32_t> seq(kSequenceLength);
    for (size_t i = 0; i < seq.size(); ++i) {
      // A fixed 10% grouped share: every tenth request of each caller.
      seq[i] = i % 10 == 9
                   ? static_cast<uint32_t>(
                         scalar + rng.UniformInt(0, grouped_last))
                   : static_cast<uint32_t>(rng.UniformInt(0, scalar_last));
    }
    t.per_client.push_back(std::move(seq));
  }
  return t;
}

Traffic HotTraffic(uint64_t seed, size_t clients) {
  Traffic t;
  std::set<std::string> seen;
  AppendDistinct(WorkloadTexts(1, Mix(seed, 1)), &seen, &t.texts);
  const int64_t n = static_cast<int64_t>(t.texts.size());
  for (size_t c = 0; c < clients; ++c) {
    Random rng(Mix(seed, 100 + c));
    std::vector<uint32_t> seq(kSequenceLength);
    for (uint32_t& idx : seq) idx = static_cast<uint32_t>(rng.Zipf(n, 1.0) - 1);
    t.per_client.push_back(std::move(seq));
  }
  return t;
}


/// What one caller saw in one slice of the window.
struct ClientSlice {
  std::vector<uint32_t> latency_ns;  // requests submitted in the slice
  double seconds = 0;                // from the slice start to its last reply
  double probe_ms = 0;               // the probe kernel after the slice
};

/// What one caller saw.
struct ClientStats {
  std::vector<ClientSlice> slices;  // recorded slices of the window
  uint64_t attempted = 0;  // every request, warm-up included
  uint64_t failed = 0;     // error or oracle mismatch
  uint64_t not_found = 0;
  std::vector<uint64_t> refill_flights;  // serve_hot, caller 0
  std::string first_error;
};

using Stores = std::vector<std::shared_ptr<const SynopsisStore>>;
using References = std::vector<const Reference*>;

/// One closed-loop request: submit, wait, check against the reference of
/// the generation the answer carries. With a tracer buffer the request
/// gets a span, and a request that ran the answer path itself is
/// decomposed into stage spans against the same generation's store.
/// Returns the latency in nanoseconds.
int64_t ServeRequest(QueryServer& server, const std::string& sql, size_t idx,
                     const References& refs, const Stores& stores,
                     const Rewriter& rewriter, Tracer::Buffer* tb,
                     ClientStats* out) {
  const int64_t span_start = tb != nullptr ? tb->tracer().Now() : 0;
  const Clock::time_point t0 = Clock::now();
  Result<ServedAnswer> r = server.Submit(sql).get();
  const int64_t latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count();
  ++out->attempted;
  std::string error;
  if (!r.ok()) {
    if (r.status().code() == StatusCode::kNotFound) ++out->not_found;
    error = r.status().ToString();
  } else if (r->generation >= refs.size() ||
             !Matches(*r, refs[r->generation]->answers[idx])) {
    error = "answer differs from the reference (generation " +
            std::to_string(r->generation) + ")";
  }
  if (!error.empty()) {
    ++out->failed;
    if (out->first_error.empty()) out->first_error = error + ": " + sql;
  }
  if (tb != nullptr) {
    Span s;
    s.start_ns = span_start;
    s.end_ns = span_start + latency;
    s.id = tb->tracer().NextId();
    s.request = tb->tracer().NextRequest();
    s.name = SpanName::kRequest;
    s.phase = tb->phase;
    tb->Record(s);
    if (error.empty() && r->attempts > 0) {
      (void)RunPipeline(sql, *stores[r->generation], rewriter, tb, s.id,
                        s.request);
    }
  }
  return latency;
}

struct LoopConfig {
  size_t warmup_slices = 0;  // served and probed, not recorded
  size_t slices = 0;         // recorded slices
  size_t traced_from = 0;    // traced runs: first traced recorded slice
  bool reload = false;       // serve_hot: caller 0 alternates generations
  const Paths* paths = nullptr;
  std::barrier<>* barrier = nullptr;  // one party per caller
};

/// One caller. The window is a sequence of slices; in each, the caller
/// sends requests one at a time for kSliceSeconds. Then every caller
/// stops at a barrier and times the probe kernel, so each slice carries
/// the machine speed it was served at, and the next slice starts
/// together.
void ClientLoop(QueryServer& server, const Schema& schema,
                const Traffic& traffic, const References& refs,
                const Stores& stores, const LoopConfig& cfg, size_t client,
                Tracer::Buffer* tb, ClientStats* out) {
  Rewriter rewriter(schema);
  const std::vector<uint32_t>& seq = traffic.per_client[client];
  const auto slice_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSliceSeconds));
  out->slices.resize(cfg.slices);
  uint64_t reloads = 0, last_flights = 0;
  size_t i = 0, probe_sink = 0;
  for (size_t k = 0; k < cfg.warmup_slices + cfg.slices; ++k) {
    const bool recorded = k >= cfg.warmup_slices;
    const bool traced = tb != nullptr && recorded &&
                        k - cfg.warmup_slices >= cfg.traced_from;
    ClientSlice warmup;
    ClientSlice& slice = recorded ? out->slices[k - cfg.warmup_slices] : warmup;
    const Clock::time_point start = Clock::now();
    for (; Clock::now() < start + slice_length; ++i) {
      const bool sampled = traced && i % kTraceEvery == 0;
      const uint32_t idx = seq[i % seq.size()];
      const int64_t latency = ServeRequest(server, traffic.texts[idx], idx,
                                           refs, stores, rewriter,
                                           sampled ? tb : nullptr, out);
      slice.latency_ns.push_back(static_cast<uint32_t>(
          std::min<int64_t>(latency, std::numeric_limits<uint32_t>::max())));
      if (cfg.reload && client == 0 && (i + 1) % kReloadEvery == 0) {
        // The write beside the reads: swap generations, which bumps the
        // epoch and forces the hot set to be recomputed.
        const uint64_t flights = server.stats().flights;
        if (reloads > 0) out->refill_flights.push_back(flights - last_flights);
        last_flights = flights;
        const std::string& path =
            reloads % 2 == 0 ? cfg.paths->bundle_gen1 : cfg.paths->bundle;
        ++reloads;
        Status st;
        {
          ScopedSpan span(traced ? tb : nullptr, SpanName::kReload);
          st = server.Reload(path);
        }
        if (!st.ok()) {
          ++out->failed;
          if (out->first_error.empty()) out->first_error = st.ToString();
        }
      }
    }
    slice.seconds = SecondsSince(start);
    cfg.barrier->arrive_and_wait();
    slice.probe_ms = ProbeKernelMs(kSliceProbeStrings, k, &probe_sink);
    cfg.barrier->arrive_and_wait();
  }
  if (probe_sink == 0) Die("probe kernel computed nothing");
}

// ---- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_error;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> envelope;  // raw JSON values

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Env(std::string key, const std::string& json_value) {
    envelope.emplace_back(std::move(key), json_value);
  }
  void Env(std::string key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Env(std::move(key), std::string(buf));
  }
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Percentile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  const size_t k = std::min(v->size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + k, v->end());
  return static_cast<double>((*v)[k]);
}

/// End-to-end metrics shared by every workload. Set-up rep `i` ran
/// between probe samples `i` and `i + 1`; each rep's times are scaled by
/// the slowdown around it before the median is taken.
void AddCommonMetrics(const SetupTimes& times, double relative_error,
                      const SpeedProbe& probe, RunResult* res) {
  std::vector<double> setup_s, publish_s;
  for (size_t i = 0; i < times.setup_s.size(); ++i) {
    setup_s.push_back(times.setup_s[i] / probe.SlowdownAround(i));
    publish_s.push_back(times.publish_s[i] / probe.SlowdownAround(i));
  }
  res->Env("slowdown", probe.Slowdown());
  res->Env("probe_samples", static_cast<double>(probe.samples()));
  res->Env("setup_s_raw", Median(times.setup_s));
  res->Env("publish_s_raw", Median(times.publish_s));
  res->Add("publish_s", Median(publish_s), "s");
  res->Add("success_ratio",
           1.0 - static_cast<double>(res->failed) /
                     static_cast<double>(std::max<uint64_t>(1, res->attempted)),
           "ratio");
  res->Add("bundle_bytes", static_cast<double>(times.bundle_bytes), "bytes");
  res->Add("median_relative_error", relative_error, "ratio");
  res->Add("setup_s", Median(setup_s), "s");
  res->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// One slice of the window, merged over callers.
struct Slice {
  std::vector<uint32_t> latency_ns;
  double qps = 0;       // sum over callers of requests / serving seconds
  double slowdown = 1;  // median caller probe time over the reference
};

std::vector<Slice> MergeSlices(const std::vector<ClientStats>& cs,
                               size_t begin, size_t end) {
  std::vector<Slice> out;
  for (size_t k = begin; k < end; ++k) {
    Slice m;
    std::vector<double> probe_ms;
    for (const ClientStats& c : cs) {
      const ClientSlice& s = c.slices[k];
      m.latency_ns.insert(m.latency_ns.end(), s.latency_ns.begin(),
                          s.latency_ns.end());
      m.qps += static_cast<double>(s.latency_ns.size()) / s.seconds;
      probe_ms.push_back(s.probe_ms);
    }
    m.slowdown = Median(probe_ms) / kSliceProbeReferenceMs;
    out.push_back(std::move(m));
  }
  return out;
}

/// Median over slices of the completed-request rate; with `scale`, each
/// slice's rate is in reference-machine units.
double MedianQps(const std::vector<Slice>& slices, bool scale) {
  std::vector<double> qps;
  for (const Slice& s : slices) qps.push_back(s.qps * (scale ? s.slowdown : 1));
  return Median(qps);
}

/// qps and latency percentiles per slice, with `scale` in reference-machine
/// units (divided by the slice's slowdown); each metric is the median
/// slice. Raw values go to the envelope.
void AddLatencyMetrics(std::vector<Slice>* slices, bool scale,
                       RunResult* res) {
  std::vector<double> p50, p99, raw_p50, raw_p99, slowdown;
  size_t samples = 0, min_samples = std::numeric_limits<size_t>::max();
  for (Slice& s : *slices) {
    const double f = scale ? s.slowdown : 1;
    raw_p50.push_back(Percentile(&s.latency_ns, 0.50) / 1e3);
    raw_p99.push_back(Percentile(&s.latency_ns, 0.99) / 1e3);
    p50.push_back(raw_p50.back() / f);
    p99.push_back(raw_p99.back() / f);
    slowdown.push_back(s.slowdown);
    samples += s.latency_ns.size();
    min_samples = std::min(min_samples, s.latency_ns.size());
  }
  res->Add("qps", MedianQps(*slices, scale), "1/s");
  res->Add("latency_p50_us", Median(p50), "us");
  res->Add("latency_p99_us", Median(p99), "us");
  res->Env("serve_scaled", scale ? "true" : "false");
  res->Env("slice_slowdown", Median(slowdown));
  res->Env("qps_raw", MedianQps(*slices, false));
  res->Env("latency_p50_us_raw", Median(raw_p50));
  res->Env("latency_p99_us_raw", Median(raw_p99));
  res->Env("latency_samples", static_cast<double>(samples));
  res->Env("latency_slices", static_cast<double>(slices->size()));
  res->Env("min_samples_per_slice", static_cast<double>(min_samples));
  res->Env("percentiles", "[\"p50\", \"p99\"]");
}

/// Per-layer metrics from the trace and the server counters. A layer the
/// workload's measured phase does not run reports its set-up spans.
struct LayerInputs {
  ServeStats serve;  // the measured server's counters
  std::vector<double> refill;
  Synopsis::BuildStats view_totals;
  double overhead_pct = 0;
};

void AddLayerMetrics(const Tracer& tracer, const LayerInputs& in,
                     RunResult* res) {
  const Tracer::Aggs main = tracer.Aggregate(kMain);
  const Tracer::Aggs setup = tracer.Aggregate(kSetup);
  const Tracer::Aggs req = tracer.RequestStages(kMain);
  auto pick = [&](SpanName n) -> const SpanAgg& {
    const size_t i = static_cast<size_t>(n);
    return main[i].count > 0 ? main[i] : setup[i];
  };
  auto us = [&](SpanName n) { return pick(n).MeanNs() / 1e3; };
  auto ms = [&](SpanName n) { return pick(n).MeanNs() / 1e6; };
  int64_t stage_ns = 0;
  for (const SpanAgg& a : req) stage_ns += a.total_ns;
  const int64_t answer_ns =
      req[static_cast<size_t>(SpanName::kAnswerScalar)].total_ns +
      req[static_cast<size_t>(SpanName::kAnswerGrouped)].total_ns;
  const SpanAgg& request = main[static_cast<size_t>(SpanName::kRequest)];
  const double per_request_stage_us =
      request.count == 0 ? 0
                         : static_cast<double>(stage_ns) / 1e3 /
                               static_cast<double>(request.count);

  res->Add("view.answer_scalar_us", us(SpanName::kAnswerScalar), "us");
  res->Add("view.answer_grouped_us", us(SpanName::kAnswerGrouped), "us");
  res->Add("view.answer_share_pct",
           stage_ns == 0 ? 0 : 100.0 * static_cast<double>(answer_ns) /
                                   static_cast<double>(stage_ns),
           "%");
  res->Add("sql.parse_us", us(SpanName::kParse), "us");
  res->Add("rewrite.rewrite_us", us(SpanName::kRewrite), "us");
  res->Add("rewrite.canonical_key_us", us(SpanName::kCanonicalKey), "us");
  res->Add("serve.bind_us", us(SpanName::kBind), "us");
  const ServeStats& st = in.serve;
  res->Add("serve.cache_hit_ratio",
           static_cast<double>(st.cache_hits) /
               static_cast<double>(
                   std::max<uint64_t>(1, st.cache_hits + st.cache_misses)),
           "ratio");
  res->Add("serve.cache_evictions", static_cast<double>(st.cache_evictions),
           "count");
  res->Add("serve.request_us", request.MeanNs() / 1e3, "us");
  res->Add("serve.stage_us", per_request_stage_us, "us");
  res->Add("serve.overhead_us", request.MeanNs() / 1e3 - per_request_stage_us,
           "us");
  res->Add("serve.raw_hit_ratio",
           static_cast<double>(st.cache_short_circuits) /
               static_cast<double>(std::max<uint64_t>(1, st.submitted)),
           "ratio");
  res->Add("serve.reload_ms", ms(SpanName::kReload), "ms");
  res->Add("serve.refill_misses", Median(in.refill), "count");
  res->Add("view.build_ms", ms(SpanName::kBuild), "ms");
  res->Add("view.build_max_ms",
           static_cast<double>(pick(SpanName::kBuild).max_ns) / 1e6, "ms");
  res->Add("view.materialized_rows",
           static_cast<double>(in.view_totals.materialized_rows), "count");
  res->Add("view.truncated_rows",
           static_cast<double>(in.view_totals.truncated_rows), "count");
  res->Add("view.cells", static_cast<double>(in.view_totals.cells), "count");
  res->Add("dp.wal_append_us", us(SpanName::kWalAppend), "us");
  res->Add("serve.snapshot_ms", ms(SpanName::kSnapshot), "ms");
  res->Add("serve.save_ms", ms(SpanName::kSave), "ms");
  res->Add("serve.load_ms", ms(SpanName::kLoad), "ms");
  res->Add("trace.overhead_pct", in.overhead_pct, "%");
}

void MergeClient(const ClientStats& c, RunResult* res) {
  res->attempted += c.attempted;
  res->failed += c.failed;
  if (c.not_found > 0) res->correct = false;
  if (res->first_error.empty()) res->first_error = c.first_error;
}

// ---- Workload runners -------------------------------------------------------

size_t Clients() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Set-up reps; the last one's objects are kept for the run.
std::unique_ptr<Setup> SetupReps(const Args& args, const Paths& paths,
                                 const std::vector<std::string>& published,
                                 size_t cache_capacity, Tracer& tracer,
                                 SpeedProbe* probe, SetupTimes* times) {
  Tracer::Buffer* tb = nullptr;
  if (tracer.enabled()) {
    tb = tracer.NewBuffer();
    tb->phase = kSetup;
  }
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    probe->Sample();
    const bool last = rep + 1 == kSetupReps;
    s = RunSetup(args.workload, paths, published, cache_capacity, last,
                 last ? tb : nullptr, times);
  }
  probe->Sample();
  return s;
}

RunResult RunServe(const Args& args, const Paths& paths, Tracer& tracer) {
  const bool hot = args.workload == "serve_hot";
  const size_t clients = Clients();
  const Traffic traffic =
      hot ? HotTraffic(args.seed, clients) : ColdTraffic(args.seed, clients);
  const size_t cache_capacity =
      hot ? 0 : std::max<size_t>(64, traffic.texts.size() / 10);

  SpeedProbe probe;
  SetupTimes times;
  std::unique_ptr<Setup> s = SetupReps(args, paths, PublishedWorkload(),
                                       cache_capacity, tracer, &probe, &times);
  const Schema& schema = s->db->schema();
  const Reference ref0 = ComputeReference(traffic.texts, *s->gen0, schema);
  {
    // The saved bundle must answer as the in-memory publication did.
    const Rewriter rewriter(schema);
    for (size_t i = 0; i < traffic.texts.size(); i += 8) {
      Result<Answer> a = RunPipeline(traffic.texts[i], *s->pub.snapshot,
                                     rewriter, nullptr, 0, 0);
      if (!a.ok() || !SameAnswer(a->value, a->rows.get(), ref0.answers[i])) {
        Die("reloaded bundle answers differently: " + traffic.texts[i]);
      }
    }
  }
  Reference ref1;
  References refs = {&ref0};
  Stores stores = {s->gen0};
  if (hot) {
    ref1 = ComputeReference(traffic.texts, *s->gen1, schema);
    refs.push_back(&ref1);
    stores.push_back(s->gen1);
  }
  QueryServer& server = *s->server;

  LayerInputs layers;
  uint64_t flights_after_reload = 0;
  if (tracer.enabled() && !hot) {
    // The cold workload never reloads on its own, so its traced run swaps
    // the same bundle in once and counts the refill.
    Tracer::Buffer* tb = tracer.NewBuffer();
    ScopedSpan span(tb, SpanName::kReload);
    Check(server.Reload(paths.bundle), "traced reload");
    flights_after_reload = server.stats().flights;
  }

  // Untraced runs record the whole window; traced runs its first half
  // untraced and its second half traced.
  const auto window_slices =
      std::max<size_t>(2, static_cast<size_t>(args.seconds / kSliceSeconds));
  const size_t untraced_slices = args.trace ? window_slices / 2 : window_slices;
  std::barrier<> barrier(static_cast<std::ptrdiff_t>(clients));
  LoopConfig cfg;
  cfg.warmup_slices = kWarmupSlices;
  cfg.slices = window_slices;
  cfg.traced_from = untraced_slices;
  cfg.reload = hot;
  cfg.paths = &paths;
  cfg.barrier = &barrier;

  std::vector<ClientStats> cs(clients);
  std::vector<Tracer::Buffer*> bufs(clients, nullptr);
  for (size_t c = 0; c < clients && tracer.enabled(); ++c) {
    bufs[c] = tracer.NewBuffer();
  }
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(server, schema, traffic, refs, stores, cfg, c, bufs[c],
                   &cs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const ServeStats st = server.stats();
  server.Shutdown();

  RunResult res;
  for (const ClientStats& c : cs) {
    MergeClient(c, &res);
    for (uint64_t f : c.refill_flights) {
      layers.refill.push_back(static_cast<double>(f));
    }
  }
  if (!hot && tracer.enabled()) {
    layers.refill.push_back(static_cast<double>(st.flights - flights_after_reload));
  }
  // Untraced and traced halves, for the tracing overhead.
  std::vector<Slice> slices = MergeSlices(cs, 0, untraced_slices);
  const std::vector<Slice> traced_slices =
      MergeSlices(cs, untraced_slices, window_slices);

  res.Env("distinct_raw_keys", static_cast<double>(traffic.texts.size()));
  res.Env("distinct_canonical_keys", static_cast<double>(ref0.canonical_keys));
  res.Env("grouped_texts", static_cast<double>(traffic.grouped_texts));
  res.Env("cache_capacity",
          static_cast<double>(MakeServeOptions(cache_capacity).cache_capacity));
  res.Env("clients", static_cast<double>(clients));
  res.Env("reloads", static_cast<double>(st.reloads));
  res.Env("views", static_cast<double>(s->gen0->NumViews()));

  if (!args.trace) {
    AddLatencyMetrics(&slices, /*scale=*/!hot, &res);
    AddCommonMetrics(times, s->relative_error, probe, &res);
  } else {
    layers.serve = st;
    layers.view_totals = s->pub.view_totals;
    layers.overhead_pct =
        100.0 * (1.0 - MedianQps(traced_slices, !hot) / MedianQps(slices, !hot));
    AddLayerMetrics(tracer, layers, &res);
  }
  return res;
}

// ---- Entry point ------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--run-dir") {
      a.run_dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;

    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.workload != "serve_cold" && a.workload != "serve_hot") {
    Die("--workload must be serve_cold or serve_hot");
  }
  if (a.run_dir.empty() || !(a.seconds > 0)) {
    Die("--run-dir and a positive --seconds are required");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.run_dir);
  const std::string dir = args.run_dir + "/";
  Paths paths;
  paths.bundle = dir + "gen0.vrsy";
  paths.bundle_gen1 = dir + "gen1.vrsy";
  paths.wal = dir + "budget.wal";
  paths.shadow_wal = dir + "shadow.wal";
  paths.spans = dir + "spans-" + args.workload + ".csv";

  Tracer tracer(args.trace);
  RunResult res = RunServe(args, paths, tracer);
  if (res.failed > 0) res.correct = false;
  if (args.trace && !tracer.Write(paths.spans)) Die("cannot write " + paths.spans);

  res.Env("workload", Quote(args.workload));
  res.Env("seed", static_cast<double>(args.seed));
  res.Env("publish_seed", static_cast<double>(kPublishSeed));
  res.Env("seconds", args.seconds);
  res.Env("trace", args.trace ? "true" : "false");
  res.Env("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  res.Env("build_type", Quote(VRBENCH_BUILD_TYPE));
  res.Env("compiler", Quote(__VERSION__));
  res.Env("git_sha", Quote(args.git_sha));
  res.Env("source_digest", Quote(args.source_digest));
  res.Env("setup_reps", static_cast<double>(kSetupReps));
  if (!res.first_error.empty()) res.Env("first_error", Quote(res.first_error));

  std::string env = "{";
  for (size_t i = 0; i < res.envelope.size(); ++i) {
    env += (i ? ", " : "") + Quote(res.envelope[i].first) + ": " +
           res.envelope[i].second;
  }
  std::printf("envelope %s}\n", env.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                Quote(res.metrics[i].name).c_str(), res.metrics[i].value,
                Quote(res.metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  if (!res.correct) {
    std::fprintf(stderr, "vrbench: oracle failed: %s\n", res.first_error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace vrbench

int main(int argc, char** argv) { return vrbench::Main(argc, argv); }
