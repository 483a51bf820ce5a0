// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, id, parent, request id). Every thread that
// records owns one Tracer::Buffer, so recording never takes a lock. Each
// buffer keeps per-name aggregates (count, total, max) of every span and
// the raw spans up to a cap; Tracer::Write dumps the raw spans as CSV when
// the run ends. Aggregates are kept per phase: `kSetup` covers the
// program's set-up, `kMain` the measured workload.

#ifndef VIEWREWRITE_PERFBENCH_TRACE_H_
#define VIEWREWRITE_PERFBENCH_TRACE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vrbench {

using Clock = std::chrono::steady_clock;

enum class SpanName : uint8_t {
  kPublish = 0,    // one curator publication: prepare + snapshot + save
  kPrepare,        // ViewRewriteEngine::Prepare
  kSnapshot,       // SynopsisStore::FromManager
  kSave,           // SynopsisStore::Save
  kLoad,           // SynopsisStore::Load
  kParse,          // ParseSelect
  kRewrite,        // Rewriter::Rewrite
  kCanonicalKey,   // CanonicalCacheKey
  kBind,           // SynopsisStore::Bind
  kAnswerScalar,   // SynopsisStore::Answer
  kAnswerGrouped,  // SynopsisStore::AnswerGrouped
  kBuild,          // Synopsis::Build
  kWalAppend,      // BudgetWal::AppendSpend
  kRequest,        // QueryServer::Submit until the answer is ready
  kReload,         // QueryServer::Reload
  kCount,          // sentinel
};

inline const char* SpanNameString(SpanName n) {
  static const char* kNames[] = {
      "publish",       "engine.prepare",  "serve.snapshot", "serve.save",
      "serve.load",    "sql.parse",       "rewrite.rewrite",
      "rewrite.canonical_key",            "serve.bind",
      "view.answer_scalar",               "view.answer_grouped",
      "view.build",    "dp.wal_append",   "serve.request",  "serve.reload"};
  return kNames[static_cast<size_t>(n)];
}

enum Phase : uint8_t { kSetup = 0, kMain = 1 };

struct Span {
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
  uint64_t request = 0;  // 0 = not part of a served request
  uint32_t id = 0;
  uint32_t parent = 0;   // 0 = root
  SpanName name = SpanName::kCount;
  Phase phase = kMain;
};

struct SpanAgg {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;

  void Add(int64_t ns) {
    ++count;
    total_ns += ns;
    max_ns = std::max(max_ns, ns);
  }
  void Merge(const SpanAgg& o) {
    count += o.count;
    total_ns += o.total_ns;
    max_ns = std::max(max_ns, o.max_ns);
  }
  double MeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) /
                                  static_cast<double>(count);
  }
};

class Tracer {
 public:
  /// Raw spans kept per buffer; aggregates count every span regardless.
  static constexpr size_t kMaxRawPerBuffer = 200000;

  using Aggs = std::array<SpanAgg, static_cast<size_t>(SpanName::kCount)>;

  class Buffer {
   public:
    explicit Buffer(Tracer* tracer) : tracer_(tracer) {}
    Tracer& tracer() { return *tracer_; }

    void Record(const Span& s) {
      const size_t name = static_cast<size_t>(s.name);
      aggs_[s.phase][name].Add(s.end_ns - s.start_ns);
      if (s.request != 0 && s.name != SpanName::kRequest) {
        request_stages_[s.phase][name].Add(s.end_ns - s.start_ns);
      }
      if (raw_.size() < kMaxRawPerBuffer) raw_.push_back(s);
    }

    Phase phase = kMain;

   private:
    friend class Tracer;
    Tracer* tracer_;
    std::array<Aggs, 2> aggs_{};
    std::array<Aggs, 2> request_stages_{};  // stage spans of served requests
    std::vector<Span> raw_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A buffer for one recording thread; owned by the tracer.
  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>(this));
    return buffers_.back().get();
  }

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t NextRequest() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Aggregates over every buffer. Call only after recording threads end.
  Aggs Aggregate(Phase phase) const {
    Aggs out{};
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      for (size_t i = 0; i < out.size(); ++i) out[i].Merge(b->aggs_[phase][i]);
    }
    return out;
  }

  /// Aggregates of the stage spans that belong to a served request.
  Aggs RequestStages(Phase phase) const {
    Aggs out{};
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      for (size_t i = 0; i < out.size(); ++i) {
        out[i].Merge(b->request_stages_[phase][i]);
      }
    }
    return out;
  }

  /// Writes every kept raw span as CSV. Call only after recording ends.
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,phase,id,parent,request,start_ns,end_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      for (const Span& s : b->raw_) {
        std::fprintf(f, "%s,%s,%u,%u,%llu,%lld,%lld\n", SpanNameString(s.name),
                     s.phase == kSetup ? "setup" : "main", s.id, s.parent,
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span over its lifetime into `buf`; a null buffer (tracing
/// off) records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buf, SpanName name, uint32_t parent = 0,
             uint64_t request = 0)
      : buf_(buf) {
    if (buf_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.request = request;
    span_.phase = buf_->phase;
    span_.id = buf_->tracer().NextId();
    span_.start_ns = buf_->tracer().Now();
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    span_.end_ns = buf_->tracer().Now();
    buf_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }

 private:
  Tracer::Buffer* buf_;
  Span span_;
};

}  // namespace vrbench

#endif  // VIEWREWRITE_PERFBENCH_TRACE_H_
