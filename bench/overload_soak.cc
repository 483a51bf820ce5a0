// Overload soak: many seeded open-loop overload runs through the serve
// path (tests/chaos/overload_harness.h), asserting the overload contract
// on every one: no congestion collapse at 2x-10x capacity, typed fast
// shedding, bounded drain, no priority inversion, baseline-exact answers
// under pressure, and the extended conservation law
// (flights + coalesced_waiters + cache_short_circuits + expired_in_queue
// + shed_hopeless + shed_displaced == submitted) plus admission
// accounting (submitted + rejected + shed_admission + brownout_served
// == issued) after every run.
//
// Across the seeds it then judges the serve path's performance gates,
// each a ratio or a latency measured within the run:
//   - the median over seeds of goodput(4x) / peak goodput is >= 0.7;
//   - the median over seeds of goodput(10x) / peak goodput is >= 0.7;
//   - the largest per-seed admission-shed p99 is < 1ms.
// A sanitizer build skips these three gates (they would time the
// instrumentation) and still checks every per-seed invariant.
//
//   $ ./build/bench/overload_soak [num_seeds] [base_seed]
//
// Defaults: 32 seeds starting at base seed 1. Exits non-zero if any seed
// violates the contract (printing every violation for it) or a gate
// fails. Registered under ctest label "chaos" (excluded from tier-1); CI
// runs it with a hard wall-clock bound.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/overload_harness.h"

namespace {

// Detected at compile time: GCC defines the __SANITIZE_* macros, Clang
// answers __has_feature.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr double kMinGoodputRatio = 0.7;
constexpr double kMaxShedP99Ms = 1.0;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace viewrewrite;

  const uint64_t num_seeds =
      argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 32;
  const uint64_t base_seed =
      argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 1;

  std::printf("overload soak: %llu seeds from %llu\n",
              static_cast<unsigned long long>(num_seeds),
              static_cast<unsigned long long>(base_seed));
  std::printf("%-6s %-9s %-8s %-8s %-8s %-8s %-9s %-9s %-8s %s\n", "seed",
              "capacity", "good2x", "good4x", "good10x", "shed", "expired",
              "shed_p99", "drain", "verdict");

  // Shorter phases than the defaults: 32 seeds must fit the CI bound,
  // and the contract is phase-length-invariant.
  chaos::OverloadConfig config;
  config.calibration = std::chrono::milliseconds(200);
  config.phase = std::chrono::milliseconds(300);

  uint64_t failed_seeds = 0;
  uint64_t total_issued = 0;
  uint64_t total_submitted = 0;
  uint64_t total_shed_admission = 0;
  uint64_t total_shed_hopeless = 0;
  uint64_t total_shed_displaced = 0;
  double worst_goodput_fraction = 1.0;
  double worst_shed_p99_ms = 0;
  std::vector<double> ratios_4x;
  std::vector<double> ratios_10x;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = base_seed + i;
    chaos::OverloadRunResult run = chaos::RunOverloadSeed(seed, config);
    uint64_t shed = 0, expired = 0;
    double peak = 0, shed_p99 = 0, drain = 0;
    for (const auto& p : run.phases) {
      shed += p.shed;
      expired += p.expired;
      if (p.goodput_qps > peak) peak = p.goodput_qps;
      if (p.shed_p99_ms > shed_p99) shed_p99 = p.shed_p99_ms;
      if (p.drain_seconds > drain) drain = p.drain_seconds;
    }
    for (const auto& p : run.phases) {
      if (peak > 0 && p.goodput_qps / peak < worst_goodput_fraction) {
        worst_goodput_fraction = p.goodput_qps / peak;
      }
    }
    if (shed_p99 > worst_shed_p99_ms) worst_shed_p99_ms = shed_p99;
    auto goodput_at = [&run](size_t idx) {
      return idx < run.phases.size() ? run.phases[idx].goodput_qps : 0.0;
    };
    // Phases run at 2x, 4x and 10x (the default load factors).
    ratios_4x.push_back(peak > 0 ? goodput_at(1) / peak : 0.0);
    ratios_10x.push_back(peak > 0 ? goodput_at(2) / peak : 0.0);
    std::printf(
        "%-6llu %-9.0f %-8.0f %-8.0f %-8.0f %-8llu %-9llu %-9.3f %-8.2f %s\n",
        static_cast<unsigned long long>(seed), run.capacity_qps,
        goodput_at(0), goodput_at(1), goodput_at(2),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(expired), shed_p99, drain,
        run.ok() ? "pass" : "FAIL");
    total_issued += run.issued;
    total_submitted += run.submitted;
    total_shed_admission += run.shed_admission;
    total_shed_hopeless += run.shed_hopeless;
    total_shed_displaced += run.shed_displaced;
    if (!run.ok()) {
      ++failed_seeds;
      for (const std::string& violation : run.violations) {
        std::fprintf(stderr, "  seed %llu violation: %s\n",
                     static_cast<unsigned long long>(seed),
                     violation.c_str());
      }
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "soak overload: issued=%llu submitted=%llu shed_admission=%llu "
      "shed_hopeless=%llu shed_displaced=%llu\n",
      static_cast<unsigned long long>(total_issued),
      static_cast<unsigned long long>(total_submitted),
      static_cast<unsigned long long>(total_shed_admission),
      static_cast<unsigned long long>(total_shed_hopeless),
      static_cast<unsigned long long>(total_shed_displaced));
  std::printf("soak bounds: worst_goodput_fraction=%.2f worst_shed_p99=%.3fms\n",
              worst_goodput_fraction, worst_shed_p99_ms);
  const double median_4x = Median(ratios_4x);
  const double median_10x = Median(ratios_10x);
  std::printf(
      "soak gates: median_goodput_4x_ratio=%.3f median_goodput_10x_ratio=%.3f "
      "(>= %.1f) max_shed_p99=%.3fms (< %.0fms)%s\n",
      median_4x, median_10x, kMinGoodputRatio, worst_shed_p99_ms,
      kMaxShedP99Ms, kSanitized ? " [skipped: sanitizer build]" : "");
  bool gates_ok = true;
  auto gate = [&gates_ok](bool held, const char* what, double value) {
    if (held) return;
    std::fprintf(stderr, "gate failed: %s (%.3f)\n", what, value);
    gates_ok = false;
  };
  if (!kSanitized) {
    gate(median_4x >= kMinGoodputRatio,
         "congestion collapse at 4x: median goodput ratio below 0.7",
         median_4x);
    gate(median_10x >= kMinGoodputRatio,
         "congestion collapse at 10x: median goodput ratio below 0.7",
         median_10x);
    gate(worst_shed_p99_ms < kMaxShedP99Ms,
         "admission-shed p99 at or above 1ms", worst_shed_p99_ms);
  }
  std::printf("soak finished in %.1fs: %llu/%llu seeds passed\n", elapsed,
              static_cast<unsigned long long>(num_seeds - failed_seeds),
              static_cast<unsigned long long>(num_seeds));
  return failed_seeds == 0 && gates_ok ? 0 : 1;
}
