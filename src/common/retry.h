#ifndef VIEWREWRITE_COMMON_RETRY_H_
#define VIEWREWRITE_COMMON_RETRY_H_

#include <chrono>
#include <cstdint>
#include <random>

#include "common/status.h"

namespace viewrewrite {

/// Bounded-attempt retry schedule with exponential backoff and seeded,
/// deterministic jitter. The policy is pure data; `Backoff` turns it into
/// a concrete delay sequence for one request.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retries.
  uint32_t max_attempts = 3;
  /// Delay before the second attempt; doubles (by `backoff_multiplier`)
  /// per further attempt, capped at `max_backoff`.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(1);
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff = std::chrono::milliseconds(50);
  /// Fraction of each delay randomized away: the delay is scaled by a
  /// factor drawn uniformly from [1 - jitter, 1]. Zero disables jitter.
  double jitter = 0.5;
};

/// True for codes that may succeed on a later attempt with no semantic
/// change: transient capacity conditions (Unavailable) and internal /
/// injected faults. Semantic failures (parse, not-found, corruption,
/// privacy, deadline) never retry — repeating them cannot change the
/// outcome, only waste the deadline. ResourceExhausted is explicitly
/// non-retryable: it is the overload-shed signal, and retrying a shed
/// re-offers the very load that caused it (retry storms amplify
/// overload instead of riding out a blip).
bool IsRetryableStatus(StatusCode code);

/// The delay sequence for one request. `Next()` returns the delay to
/// sleep before attempt 2, 3, ... Jitter is drawn from a dedicated
/// generator seeded with `seed`, so a fixed (policy, seed) pair always
/// replays the same schedule — the chaos harness depends on this.
class Backoff {
 public:
  Backoff(const RetryPolicy& policy, uint64_t seed);

  std::chrono::nanoseconds Next();

 private:
  RetryPolicy policy_;
  std::chrono::nanoseconds current_;
  std::mt19937_64 prng_;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_COMMON_RETRY_H_
