#include "common/retry.h"

#include <algorithm>

namespace viewrewrite {

bool IsRetryableStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kInternal:
      return true;
    case StatusCode::kResourceExhausted:
      // The overload-shed signal: the server refused the work to protect
      // itself, so an immediate retry re-offers exactly the load being
      // shed. Explicitly non-retryable rather than relying on the
      // default arm — shed amplification is a correctness property of
      // the overload design, not an accident of omission.
      return false;
    default:
      return false;
  }
}

Backoff::Backoff(const RetryPolicy& policy, uint64_t seed)
    : policy_(policy),
      current_(std::max(policy.initial_backoff, std::chrono::nanoseconds(0))),
      prng_(seed) {
  policy_.jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  policy_.backoff_multiplier = std::max(1.0, policy_.backoff_multiplier);
  if (policy_.max_backoff < policy_.initial_backoff) {
    policy_.max_backoff = policy_.initial_backoff;
  }
}

std::chrono::nanoseconds Backoff::Next() {
  const std::chrono::nanoseconds base = current_;
  const double grown =
      static_cast<double>(base.count()) * policy_.backoff_multiplier;
  const double cap = static_cast<double>(policy_.max_backoff.count());
  current_ = std::chrono::nanoseconds(
      static_cast<int64_t>(std::min(grown, cap)));
  double factor = 1.0;
  if (policy_.jitter > 0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    factor = 1.0 - policy_.jitter * dist(prng_);
  }
  return std::chrono::nanoseconds(
      static_cast<int64_t>(static_cast<double>(base.count()) * factor));
}

}  // namespace viewrewrite
