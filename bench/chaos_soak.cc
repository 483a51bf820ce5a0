// Chaos soak: many seeded fault schedules through the full
// publish -> save -> load -> serve run, asserting the resilience-layer
// invariants on every one (see tests/chaos/chaos_harness.h):
// no crash, no deadlock, ledger never over-spent (including across
// republish generations), every response generation-baseline-exact,
// stale-by-brownout, or an allowed typed error, the conservation law
// (flights + coalesced_waiters + cache_short_circuits
// + expired_in_queue + shed_hopeless + shed_displaced == submitted)
// after every shutdown, and no torn bundle under republish/reload/query
// races — now with the overload-control fault point, priority classes
// and seed-drawn limiter/brownout in the mix.
//
//   $ ./build/bench/chaos_soak [num_seeds] [base_seed]
//
// Defaults: 32 seeds starting at base seed 1. Exits non-zero on the
// first invariant violation, printing every violation for that seed.
// Registered under ctest label "chaos" (excluded from tier-1); CI runs
// it with a hard wall-clock bound.

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>

#include "chaos/chaos_harness.h"

int main(int argc, char** argv) {
  using namespace viewrewrite;

  const uint64_t num_seeds =
      argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 32;
  const uint64_t base_seed =
      argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 1;

  std::printf("chaos soak: %llu seeds from %llu\n",
              static_cast<unsigned long long>(num_seeds),
              static_cast<unsigned long long>(base_seed));
  std::printf(
      "%-6s %-6s %-6s %-6s %-6s %-7s %-8s %-7s %-7s %-7s %-7s %-7s %-7s "
      "%-7s %s\n",
      "seed", "views", "fresh", "stale", "errors", "flights", "coalesc",
      "maxgrp", "reload", "publish", "single", "gens", "rebuilt", "outdtd",
      "verdict");

  uint64_t failed_seeds = 0;
  uint64_t total_submitted = 0;
  uint64_t total_flights = 0;
  uint64_t total_coalesced = 0;
  uint64_t total_short_circuits = 0;
  uint64_t total_expired = 0;
  uint64_t largest_group = 0;
  uint64_t total_generations = 0;
  uint64_t total_rebuilt = 0;
  uint64_t total_outdated = 0;
  uint64_t total_shed_admission = 0;
  uint64_t total_shed_hopeless = 0;
  uint64_t total_shed_displaced = 0;
  uint64_t total_brownout = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = base_seed + i;
    chaos::ChaosRunResult run = chaos::RunChaosSeed(seed);
    // gens column: published / attempted republish generations.
    char gens[24];
    std::snprintf(gens, sizeof(gens), "%llu/%llu",
                  static_cast<unsigned long long>(run.generations_published),
                  static_cast<unsigned long long>(run.generations_attempted));
    std::printf(
        "%-6llu %-6llu %-6llu %-6llu %-6llu %-7llu %-8llu %-7llu %-7s %-7s "
        "%-7s %-7s %-7llu %-7llu %s\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(run.published_views),
        static_cast<unsigned long long>(run.fresh),
        static_cast<unsigned long long>(run.stale),
        static_cast<unsigned long long>(run.errors),
        static_cast<unsigned long long>(run.flights),
        static_cast<unsigned long long>(run.coalesced_waiters),
        static_cast<unsigned long long>(run.max_flight_group),
        run.reload_attempted ? "yes" : "no",
        run.prepare_ok ? "ok" : "degrade",
        run.coalescing_enabled ? "on" : "off", gens,
        static_cast<unsigned long long>(run.views_rebuilt),
        static_cast<unsigned long long>(run.outdated_served),
        run.ok() ? "pass" : "FAIL");
    total_submitted += run.submitted;
    total_flights += run.flights;
    total_coalesced += run.coalesced_waiters;
    total_short_circuits += run.cache_short_circuits;
    total_expired += run.expired_in_queue;
    if (run.max_flight_group > largest_group) {
      largest_group = run.max_flight_group;
    }
    total_generations += run.generations_published;
    total_rebuilt += run.views_rebuilt;
    total_outdated += run.outdated_served;
    total_shed_admission += run.shed_admission;
    total_shed_hopeless += run.shed_hopeless;
    total_shed_displaced += run.shed_displaced;
    total_brownout += run.brownout_served;
    if (!run.ok()) {
      ++failed_seeds;
      for (const std::string& violation : run.violations) {
        std::fprintf(stderr, "  seed %llu violation: %s\n",
                     static_cast<unsigned long long>(seed),
                     violation.c_str());
      }
    }
  }
  // The per-seed harness already asserts the conservation law on each
  // server; summing the channels across every seed must balance too — a
  // cheap cross-check that no seed's accounting was silently skipped.
  if (total_flights + total_coalesced + total_short_circuits +
          total_expired + total_shed_hopeless + total_shed_displaced !=
      total_submitted) {
    std::fprintf(stderr,
                 "aggregate conservation violated: %llu + %llu + %llu + %llu "
                 "+ %llu + %llu != %llu\n",
                 static_cast<unsigned long long>(total_flights),
                 static_cast<unsigned long long>(total_coalesced),
                 static_cast<unsigned long long>(total_short_circuits),
                 static_cast<unsigned long long>(total_expired),
                 static_cast<unsigned long long>(total_shed_hopeless),
                 static_cast<unsigned long long>(total_shed_displaced),
                 static_cast<unsigned long long>(total_submitted));
    ++failed_seeds;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "soak coalescing: submitted=%llu flights=%llu coalesced=%llu "
      "short_circuits=%llu expired_in_queue=%llu largest_group=%llu\n",
      static_cast<unsigned long long>(total_submitted),
      static_cast<unsigned long long>(total_flights),
      static_cast<unsigned long long>(total_coalesced),
      static_cast<unsigned long long>(total_short_circuits),
      static_cast<unsigned long long>(total_expired),
      static_cast<unsigned long long>(largest_group));
  std::printf(
      "soak overload: shed_admission=%llu shed_hopeless=%llu "
      "shed_displaced=%llu brownout_served=%llu\n",
      static_cast<unsigned long long>(total_shed_admission),
      static_cast<unsigned long long>(total_shed_hopeless),
      static_cast<unsigned long long>(total_shed_displaced),
      static_cast<unsigned long long>(total_brownout));
  std::printf(
      "soak lifecycle: generations_published=%llu views_rebuilt=%llu "
      "outdated_served=%llu\n",
      static_cast<unsigned long long>(total_generations),
      static_cast<unsigned long long>(total_rebuilt),
      static_cast<unsigned long long>(total_outdated));
  std::printf("soak finished in %.1fs: %llu/%llu seeds passed\n", elapsed,
              static_cast<unsigned long long>(num_seeds - failed_seeds),
              static_cast<unsigned long long>(num_seeds));
  return failed_seeds == 0 ? 0 : 1;
}
