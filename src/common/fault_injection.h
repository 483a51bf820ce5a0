#ifndef VIEWREWRITE_COMMON_FAULT_INJECTION_H_
#define VIEWREWRITE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>

#include "common/status.h"

namespace viewrewrite {

/// Canonical fault-point names threaded through the pipeline. Each is a
/// cheap check (one relaxed atomic load when nothing is armed) at which
/// tests can deterministically force a failure.
namespace faults {
inline constexpr const char kParse[] = "parse";
inline constexpr const char kRewrite[] = "rewrite";
inline constexpr const char kViewRegister[] = "view.register";
inline constexpr const char kViewPublish[] = "view.publish";
inline constexpr const char kDpMechanism[] = "dp.mechanism";
inline constexpr const char kStorageCsv[] = "storage.csv";
inline constexpr const char kServeLoad[] = "serve.load";
inline constexpr const char kServeSave[] = "serve.save";
inline constexpr const char kServeAnswer[] = "serve.answer";
inline constexpr const char kServeReload[] = "serve.reload";
/// Overload-control admission gate: a firing fault forces the shed path
/// (brownout probe, then typed ResourceExhausted) for the request being
/// submitted, regardless of the limiter's state.
inline constexpr const char kServeOverload[] = "serve.overload";
/// Synopsis lifecycle (republisher): entry into a republish generation,
/// the per-view delta rebuild, and the final bundle swap into the server.
inline constexpr const char kServeRepublish[] = "serve.republish";
inline constexpr const char kRepublishBuild[] = "republish.build";
inline constexpr const char kRepublishSwap[] = "republish.swap";
/// Budget write-ahead ledger (budget_wal.h): entry into a record append,
/// the fsync that makes the record durable, and the checkpoint-compaction
/// rewrite. The kill-nine harness draws its SIGKILL sites from these.
inline constexpr const char kBudgetWalAppend[] = "budget.wal.append";
inline constexpr const char kBudgetWalFsync[] = "budget.wal.fsync";
inline constexpr const char kBudgetWalCheckpoint[] = "budget.wal.checkpoint";

/// Every registered point, for sweeps that arm the whole registry (the
/// chaos harness). Keep in sync with the constants above.
inline constexpr const char* kAllPoints[] = {
    kParse,          kRewrite,        kViewRegister,   kViewPublish,
    kDpMechanism,    kStorageCsv,     kServeLoad,      kServeSave,
    kServeAnswer,    kServeReload,    kServeOverload,  kServeRepublish,
    kRepublishBuild, kRepublishSwap,  kBudgetWalAppend,
    kBudgetWalFsync, kBudgetWalCheckpoint,
};
}  // namespace faults

/// Process-wide registry of armed fault points with deterministic
/// triggers: fail exactly once on the Nth hit, fail on every Nth hit,
/// fail each hit with a seeded probability, or hold the Nth hit for a
/// fixed time. Disabled points cost a single
/// relaxed atomic load at the call site (see VR_FAULT_POINT), so fault
/// points can stay compiled into release binaries.
///
/// Hit counts accumulate only while the point is armed; arming resets
/// them. All methods are thread-safe.
class FaultInjection {
 public:
  static FaultInjection& Instance();

  /// Arms `point` to fail exactly once, on its `nth` hit (1-based).
  /// Passing an OK `status` injects Status::Internal("injected fault...").
  void FailOnNth(const std::string& point, uint64_t nth,
                 Status status = Status());

  /// Arms `point` to fail on every `n`th hit (hits n, 2n, 3n, ...).
  void FailEveryN(const std::string& point, uint64_t n,
                  Status status = Status());

  /// Arms `point` to fail each hit independently with probability `p`,
  /// sampled from a dedicated generator seeded with `seed` so the firing
  /// pattern is reproducible.
  void FailWithProbability(const std::string& point, double p, uint64_t seed,
                           Status status = Status());

  /// Arms `point` to deliver SIGKILL to this process on its `nth` hit —
  /// the kill-nine harness's deterministic crash site. The process dies
  /// inside Check with no unwinding, no destructors and no flushes,
  /// exactly like an external `kill -9`. On platforms without raise(),
  /// falls back to injecting an Internal status.
  void KillOnNth(const std::string& point, uint64_t nth);

  /// Arms `point` to sleep for `duration` on its `nth` hit and then pass
  /// (return OK) — a deterministic "this stage is slow" window for tests
  /// that need a request parked at a known point. The sleep happens
  /// outside the registry lock, so other threads' checks never wait on it.
  void DelayOnNth(const std::string& point, uint64_t nth,
                  std::chrono::nanoseconds duration);

  void Disable(const std::string& point);
  void DisableAll();

  /// Hits observed at `point` since it was armed (0 if not armed).
  uint64_t HitCount(const std::string& point) const;

  /// True when at least one point is armed (lock-free fast path).
  static bool Armed() {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Records a hit at `point` and returns the injected status when the
  /// trigger fires, OK otherwise. Call via VR_FAULT_POINT so disabled
  /// builds skip the lock entirely.
  Status Check(const std::string& point);

 private:
  FaultInjection() = default;

  enum class Trigger { kNth, kEveryN, kProbability };
  struct Point {
    Trigger trigger = Trigger::kNth;
    uint64_t n = 1;
    double probability = 0;
    std::mt19937_64 prng{0};
    Status status;
    uint64_t hits = 0;
    bool fired = false;  // kNth fires at most once
    bool kill = false;   // firing raises SIGKILL instead of returning status
    std::chrono::nanoseconds delay{0};  // > 0: firing sleeps, then passes
  };

  void Arm(const std::string& point, Point p);

  static std::atomic<int> armed_points_;
  mutable std::mutex mu_;
  std::map<std::string, Point> points_;
};

/// RAII enablement for tests: arms a fault point on construction and
/// disarms it on destruction, so a failing test cannot leak an armed
/// fault into later tests.
class ScopedFault {
 public:
  static ScopedFault OnNth(const std::string& point, uint64_t nth,
                           Status status = Status());
  static ScopedFault EveryN(const std::string& point, uint64_t n,
                            Status status = Status());
  static ScopedFault WithProbability(const std::string& point, double p,
                                     uint64_t seed, Status status = Status());
  static ScopedFault DelayOnNth(const std::string& point, uint64_t nth,
                                std::chrono::nanoseconds duration);

  ScopedFault(ScopedFault&& other) noexcept;
  ScopedFault& operator=(ScopedFault&&) = delete;
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
  ~ScopedFault();

 private:
  explicit ScopedFault(std::string point) : point_(std::move(point)) {}
  std::string point_;
};

/// Fault-point check: returns the injected Status out of the enclosing
/// function when the point fires. Works in functions returning Status or
/// Result<T> (Result converts implicitly from Status). Near-zero overhead
/// when nothing is armed: one relaxed atomic load, no lock, no string.
#define VR_FAULT_POINT(point)                                     \
  do {                                                            \
    if (::viewrewrite::FaultInjection::Armed()) {                 \
      ::viewrewrite::Status _vr_fault_status =                    \
          ::viewrewrite::FaultInjection::Instance().Check(point); \
      if (!_vr_fault_status.ok()) return _vr_fault_status;        \
    }                                                             \
  } while (false)

}  // namespace viewrewrite

#endif  // VIEWREWRITE_COMMON_FAULT_INJECTION_H_
