#include "common/fault_injection.h"

#include <algorithm>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

namespace viewrewrite {

std::atomic<int> FaultInjection::armed_points_{0};

FaultInjection& FaultInjection::Instance() {
  // Leaked singleton: fault points may be checked during static
  // destruction of other objects.
  static FaultInjection* instance = new FaultInjection();
  return *instance;
}

namespace {

Status InjectedStatus(const std::string& point, Status status) {
  if (!status.ok()) return status;
  return Status::Internal("injected fault at '" + point + "'");
}

}  // namespace

void FaultInjection::Arm(const std::string& point, Point p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = points_.insert_or_assign(point, std::move(p));
  (void)it;
  if (inserted) armed_points_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjection::FailOnNth(const std::string& point, uint64_t nth,
                               Status status) {
  Point p;
  p.trigger = Trigger::kNth;
  p.n = std::max<uint64_t>(1, nth);
  p.status = InjectedStatus(point, std::move(status));
  Arm(point, std::move(p));
}

void FaultInjection::FailEveryN(const std::string& point, uint64_t n,
                                Status status) {
  Point p;
  p.trigger = Trigger::kEveryN;
  p.n = std::max<uint64_t>(1, n);
  p.status = InjectedStatus(point, std::move(status));
  Arm(point, std::move(p));
}

void FaultInjection::FailWithProbability(const std::string& point, double p,
                                         uint64_t seed, Status status) {
  Point pt;
  pt.trigger = Trigger::kProbability;
  pt.probability = std::clamp(p, 0.0, 1.0);
  pt.prng.seed(seed);
  pt.status = InjectedStatus(point, std::move(status));
  Arm(point, std::move(pt));
}

void FaultInjection::KillOnNth(const std::string& point, uint64_t nth) {
  Point p;
  p.trigger = Trigger::kNth;
  p.n = std::max<uint64_t>(1, nth);
  p.kill = true;
  p.status = InjectedStatus(point, Status());
  Arm(point, std::move(p));
}

void FaultInjection::DelayOnNth(const std::string& point, uint64_t nth,
                                std::chrono::nanoseconds duration) {
  Point p;
  p.trigger = Trigger::kNth;
  p.n = std::max<uint64_t>(1, nth);
  p.delay = std::max(duration, std::chrono::nanoseconds(1));
  Arm(point, std::move(p));
}

void FaultInjection::Disable(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.erase(point) > 0) {
    armed_points_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjection::DisableAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_points_.fetch_sub(static_cast<int>(points_.size()),
                          std::memory_order_relaxed);
  points_.clear();
}

uint64_t FaultInjection::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

Status FaultInjection::Check(const std::string& point) {
  std::chrono::nanoseconds delay{0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(point);
    if (it == points_.end()) return Status::OK();
    Point& p = it->second;
    ++p.hits;
    switch (p.trigger) {
      case Trigger::kNth:
        if (p.fired || p.hits != p.n) return Status::OK();
        p.fired = true;
#if defined(__unix__) || defined(__APPLE__)
        // Kill mode: die here, mid-operation, with no unwinding — the
        // kill-nine harness recovers in the parent process.
        if (p.kill) ::raise(SIGKILL);
#endif
        if (p.delay.count() == 0) return p.status;
        delay = p.delay;
        break;
      case Trigger::kEveryN:
        return p.hits % p.n == 0 ? p.status : Status::OK();
      case Trigger::kProbability: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        return dist(p.prng) < p.probability ? p.status : Status::OK();
      }
    }
  }
  // Delay mode: hold only the caller, never the registry.
  std::this_thread::sleep_for(delay);
  return Status::OK();
}

ScopedFault ScopedFault::OnNth(const std::string& point, uint64_t nth,
                               Status status) {
  FaultInjection::Instance().FailOnNth(point, nth, std::move(status));
  return ScopedFault(point);
}

ScopedFault ScopedFault::EveryN(const std::string& point, uint64_t n,
                                Status status) {
  FaultInjection::Instance().FailEveryN(point, n, std::move(status));
  return ScopedFault(point);
}

ScopedFault ScopedFault::WithProbability(const std::string& point, double p,
                                         uint64_t seed, Status status) {
  FaultInjection::Instance().FailWithProbability(point, p, seed,
                                                 std::move(status));
  return ScopedFault(point);
}

ScopedFault ScopedFault::DelayOnNth(const std::string& point, uint64_t nth,
                                    std::chrono::nanoseconds duration) {
  FaultInjection::Instance().DelayOnNth(point, nth, duration);
  return ScopedFault(point);
}

ScopedFault::ScopedFault(ScopedFault&& other) noexcept
    : point_(std::move(other.point_)) {
  other.point_.clear();
}

ScopedFault::~ScopedFault() {
  if (!point_.empty()) FaultInjection::Instance().Disable(point_);
}

}  // namespace viewrewrite
