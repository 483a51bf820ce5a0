#ifndef VIEWREWRITE_TESTS_CHAOS_OVERLOAD_HARNESS_H_
#define VIEWREWRITE_TESTS_CHAOS_OVERLOAD_HARNESS_H_

// Open-loop overload harness: measures the serve path's behavior when the
// offered load exceeds capacity — the regime a closed-loop driver can
// never produce, because closed-loop clients slow down with the server.
//
// One seed drives one run: publish a small workload, measure capacity
// closed-loop, then blast open-loop phases at multiples of it (paced by a
// 1ms submission tick, so arrivals keep coming whether or not the server
// keeps up) with a mixed priority population, and check the overload
// contract:
//
//   1. No congestion collapse: goodput (fresh answers/s) at every
//      overload factor stays a healthy fraction of the best phase's
//      goodput. An unprotected queue collapses here — every request
//      waits, every deadline expires, goodput goes to ~0.
//   2. Typed, fast shedding: every non-answer is one of
//      {ResourceExhausted, Unavailable, DeadlineExceeded}; admission
//      sheds resolve synchronously (the future is ready when Submit
//      returns) and cheaply.
//   3. Bounded drain: when arrivals stop, every outstanding future
//      resolves within the request deadline plus slack — accepted
//      requests never linger unboundedly behind the load.
//   4. No priority inversion: interactive traffic's success rate is
//      never materially below background's (strict-priority dequeue and
//      lowest-class-first shedding working end to end).
//   5. Answer integrity under pressure: every successful answer is
//      bit-identical to the fault-free baseline — overload changes who
//      gets served, never what they are told.
//   6. Accounting closes: the extended conservation law over the
//      server's own stats balances, and every issued request is
//      accounted for exactly once at admission
//      (submitted + rejected + shed_admission + brownout_served).
//
// The run is fault-free: everything observed is genuine queueing, not an
// injected failure. Determinism caveat: wall-clock capacity and per-phase
// counts vary with the machine; the checked bounds are chosen to hold on
// a loaded single-core CI box, while the strict performance gates live in
// the committed BENCH_serve.json (see bench/serve_throughput.cc).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/viewrewrite_engine.h"
#include "serve/overload.h"
#include "serve/query_server.h"
#include "serve/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace chaos {

struct OverloadConfig {
  /// Closed-loop capacity measurement duration.
  std::chrono::milliseconds calibration{250};
  /// Duration of each open-loop phase.
  std::chrono::milliseconds phase{400};
  /// Offered load per phase, as multiples of the measured capacity.
  std::vector<double> load_factors = {2.0, 4.0, 10.0};
  /// Per-request deadline during the open-loop phases; also the yardstick
  /// for the drain bound (invariant 3).
  std::chrono::milliseconds deadline{100};
  /// Slack added to `deadline` for the post-phase drain bound.
  std::chrono::seconds drain_slack{10};
  /// Collapse floor: every phase's goodput must stay above this fraction
  /// of the best phase's. Deliberately generous — a collapsing queue
  /// lands near zero, an adapting one near 1.
  double min_goodput_fraction = 0.35;
  /// Inversion tolerance: interactive success rate may trail background
  /// by at most this much (sampling noise allowance), and only phases
  /// where both classes issued at least `min_class_sample` requests are
  /// judged.
  double inversion_tolerance = 0.10;
  uint64_t min_class_sample = 50;
  /// Admission sheds must resolve within this bound (invariant 2). The
  /// real figure is microseconds; the bound only has to separate
  /// "synchronous" from "queued behind the backlog".
  std::chrono::milliseconds shed_latency_bound{100};
  /// Serve-side knobs under test.
  size_t num_threads = 2;
  size_t queue_capacity = 64;
  double limiter_initial = 16;
  double limiter_min = 2;
  double limiter_max = 64;
  std::chrono::milliseconds target_queue_latency{2};
};

struct OverloadPhaseResult {
  double load_factor = 0;
  uint64_t issued = 0;
  uint64_t fresh = 0;
  uint64_t shed = 0;     // ResourceExhausted / Unavailable
  uint64_t expired = 0;  // DeadlineExceeded
  double goodput_qps = 0;
  double offered_qps = 0;
  double shed_p99_ms = 0;      // admission sheds: Submit-call wall time
  double drain_seconds = 0;    // last submit -> all futures resolved
  uint64_t interactive_issued = 0, interactive_ok = 0;
  uint64_t background_issued = 0, background_ok = 0;
};

struct OverloadRunResult {
  double capacity_qps = 0;
  std::vector<OverloadPhaseResult> phases;
  // Final server stats, after every phase drained.
  uint64_t issued = 0;
  uint64_t submitted = 0;
  uint64_t shed_admission = 0;
  uint64_t shed_hopeless = 0;
  uint64_t shed_displaced = 0;
  uint64_t brownout_served = 0;
  double limiter_limit = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

namespace overload_internal {

/// One issued request's bookkeeping, paired positionally with its future.
struct Issue {
  size_t query = 0;
  Priority priority = Priority::kInteractive;
  bool ready_at_submit = false;
  std::chrono::nanoseconds submit_wall{0};
};

inline bool IsAllowedOverloadError(StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:  // admission shed / displaced
    case StatusCode::kUnavailable:        // queue full (no victim)
    case StatusCode::kDeadlineExceeded:   // expired or hopeless-dropped
      return true;
    default:
      return false;
  }
}

inline double P99Ms(std::vector<std::chrono::nanoseconds> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = (samples.size() * 99) / 100;
  return std::chrono::duration<double, std::milli>(
             samples[std::min(idx, samples.size() - 1)])
      .count();
}

/// Seeded 60/30/10 interactive/batch/background draw.
inline Priority DrawPriority(std::mt19937_64& rng) {
  const uint64_t r = rng() % 10;
  if (r < 6) return Priority::kInteractive;
  if (r < 9) return Priority::kBatch;
  return Priority::kBackground;
}

}  // namespace overload_internal

/// Runs one seeded open-loop overload scenario. Never throws; failures
/// are reported through OverloadRunResult::violations.
inline OverloadRunResult RunOverloadSeed(uint64_t seed,
                                         OverloadConfig config = {}) {
  using Clock = std::chrono::steady_clock;
  namespace oi = overload_internal;
  OverloadRunResult result;
  auto violate = [&result](const std::string& what) {
    result.violations.push_back(what);
  };
  std::mt19937_64 rng(seed ^ 0xd6e8feb86659fd93ULL);

  // ---- Publish the standard workload; all answers are deterministic. -------
  std::unique_ptr<Database> db = testing_support::MakeTestDatabase(13, 40);
  const std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 128",
      "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'",
      "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'",
  };
  EngineOptions engine_options;
  engine_options.seed = seed;
  ViewRewriteEngine engine(*db, PrivacyPolicy{"customer"}, engine_options);
  const Status prepared = engine.Prepare(workload);
  if (!prepared.ok()) {
    violate("prepare failed: " + prepared.ToString());
    return result;
  }
  std::vector<double> baseline(workload.size(), 0);
  for (size_t i = 0; i < workload.size(); ++i) {
    Result<double> ans = engine.NoisyAnswer(i);
    if (!ans.ok()) {
      violate("baseline answer failed: " + ans.status().ToString());
      return result;
    }
    baseline[i] = *ans;
  }
  Result<SynopsisStore> snapshot =
      SynopsisStore::FromManager(engine.views(), db->schema());
  if (!snapshot.ok()) {
    violate("FromManager failed: " + snapshot.status().ToString());
    return result;
  }

  // ---- The server under test. ----------------------------------------------
  // Cache and coalescing off: a tiny distinct-query pool would otherwise
  // absorb the entire overload into cache hits and the phases would
  // measure the cache, not the queue.
  ServeOptions serve_options;
  serve_options.num_threads = config.num_threads;
  serve_options.queue_capacity = config.queue_capacity;
  serve_options.enable_cache = false;
  serve_options.enable_coalescing = false;
  serve_options.overload.limiter.enabled = true;
  serve_options.overload.limiter.initial_limit = config.limiter_initial;
  serve_options.overload.limiter.min_limit = config.limiter_min;
  serve_options.overload.limiter.max_limit = config.limiter_max;
  serve_options.overload.limiter.target_queue_latency =
      config.target_queue_latency;
  QueryServer server(
      std::make_shared<const SynopsisStore>(std::move(*snapshot)),
      db->schema(), serve_options);

  uint64_t issued_total = 0;

  // ---- Closed-loop calibration: one submitter per worker, full pipeline. ---
  // Each submitter offers its next request only when the previous one
  // finished, so every worker has work without a queue building up. One
  // submitter alone would measure a single worker slowed by two thread
  // hand-offs per request, under-measuring the server several-fold; the
  // "overloaded" 2x phase would then fall below capacity.
  const size_t submitters = std::max<size_t>(1, config.num_threads);
  std::vector<uint64_t> calib_issued(submitters, 0);
  std::vector<uint64_t> calib_answered(submitters, 0);
  std::vector<std::string> calib_errors(submitters);
  {
    const Clock::time_point until = Clock::now() + config.calibration;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < submitters; ++t) {
      threads.emplace_back([&, t] {
        while (Clock::now() < until) {
          const size_t qi = (calib_answered[t] + t) % workload.size();
          Result<ServedAnswer> got = server.Submit(workload[qi]).get();
          ++calib_issued[t];
          if (!got.ok()) {
            calib_errors[t] =
                "calibration request failed: " + got.status().ToString();
            return;
          }
          if (got->value != baseline[qi]) {
            calib_errors[t] = "calibration answer diverged from baseline";
            return;
          }
          ++calib_answered[t];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  uint64_t calib_done = 0;
  for (size_t t = 0; t < submitters; ++t) {
    issued_total += calib_issued[t];
    calib_done += calib_answered[t];
    if (!calib_errors[t].empty()) violate(calib_errors[t]);
  }
  if (!result.violations.empty()) return result;
  result.capacity_qps =
      static_cast<double>(calib_done) /
      std::chrono::duration<double>(config.calibration).count();
  if (calib_done < 10) {
    violate("calibration produced only " + std::to_string(calib_done) +
            " answers; machine too slow for a meaningful run");
    return result;
  }

  // ---- Open-loop phases. ---------------------------------------------------
  for (const double factor : config.load_factors) {
    OverloadPhaseResult phase;
    phase.load_factor = factor;
    const double target_qps = result.capacity_qps * factor;
    const std::chrono::nanoseconds tick = std::chrono::milliseconds(1);
    const double per_tick =
        target_qps * std::chrono::duration<double>(tick).count();

    std::vector<oi::Issue> issues;
    std::vector<std::future<Result<ServedAnswer>>> futures;
    issues.reserve(static_cast<size_t>(per_tick * 500) + 16);
    futures.reserve(issues.capacity());

    const Clock::time_point phase_start = Clock::now();
    const Clock::time_point phase_end = phase_start + config.phase;
    Clock::time_point next_tick = phase_start;
    double carry = 0;
    while (Clock::now() < phase_end) {
      next_tick += tick;
      std::this_thread::sleep_until(next_tick);
      carry += per_tick;
      auto n = static_cast<size_t>(carry);
      carry -= static_cast<double>(n);
      for (size_t i = 0; i < n; ++i) {
        oi::Issue issue;
        issue.query = rng() % workload.size();
        issue.priority = oi::DrawPriority(rng);
        const Clock::time_point t0 = Clock::now();
        std::future<Result<ServedAnswer>> f =
            server.Submit(workload[issue.query], {}, config.deadline,
                          issue.priority);
        issue.submit_wall = Clock::now() - t0;
        issue.ready_at_submit =
            f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
        issues.push_back(issue);
        futures.push_back(std::move(f));
      }
    }
    const Clock::time_point submit_stop = Clock::now();
    phase.issued = issues.size();
    issued_total += issues.size();
    phase.offered_qps =
        static_cast<double>(phase.issued) /
        std::chrono::duration<double>(submit_stop - phase_start).count();

    // Drain: every future must resolve within deadline + slack of the
    // last submission (invariant 3).
    const Clock::time_point drain_bound =
        submit_stop + config.deadline + config.drain_slack;
    std::vector<std::chrono::nanoseconds> shed_latencies;
    for (size_t i = 0; i < futures.size(); ++i) {
      const auto left = drain_bound - Clock::now();
      if (futures[i].wait_for(std::max(left, Clock::duration::zero())) !=
          std::future_status::ready) {
        violate("drain bound exceeded at factor " + std::to_string(factor) +
                ": request " + std::to_string(i) + " of " +
                std::to_string(futures.size()) + " still unresolved");
        return result;  // .get() below could hang; stop the run here
      }
      Result<ServedAnswer> got = futures[i].get();
      const oi::Issue& issue = issues[i];
      const bool interactive = issue.priority == Priority::kInteractive;
      const bool background = issue.priority == Priority::kBackground;
      if (interactive) ++phase.interactive_issued;
      if (background) ++phase.background_issued;
      if (got.ok()) {
        ++phase.fresh;
        if (interactive) ++phase.interactive_ok;
        if (background) ++phase.background_ok;
        // Invariant 5: overload never changes an answer's value.
        if (got->value != baseline[issue.query]) {
          violate("answer diverged under load at factor " +
                  std::to_string(factor) + ": got " +
                  std::to_string(got->value) + " want " +
                  std::to_string(baseline[issue.query]));
        }
      } else if (!oi::IsAllowedOverloadError(got.status().code())) {
        violate("disallowed error under overload: " +
                got.status().ToString());
      } else if (got.status().code() == StatusCode::kDeadlineExceeded) {
        ++phase.expired;
      } else {
        ++phase.shed;
        if (issue.ready_at_submit) {
          shed_latencies.push_back(issue.submit_wall);
        }
      }
    }
    phase.drain_seconds =
        std::chrono::duration<double>(Clock::now() - submit_stop).count();
    phase.goodput_qps =
        static_cast<double>(phase.fresh) /
        std::chrono::duration<double>(submit_stop - phase_start).count();
    phase.shed_p99_ms = oi::P99Ms(std::move(shed_latencies));

    // Invariant 2: admission sheds are synchronous and cheap. Judged on
    // the Submit-call wall time of futures that were ready at submit.
    if (phase.shed_p99_ms >
        std::chrono::duration<double, std::milli>(config.shed_latency_bound)
            .count()) {
      violate("admission-shed p99 " + std::to_string(phase.shed_p99_ms) +
              "ms exceeds bound at factor " + std::to_string(factor));
    }
    result.phases.push_back(phase);
  }

  // Invariant 1: no congestion collapse across the factors.
  double peak = 0;
  for (const OverloadPhaseResult& p : result.phases) {
    peak = std::max(peak, p.goodput_qps);
  }
  if (peak <= 0) {
    violate("no phase produced any goodput");
  } else {
    for (const OverloadPhaseResult& p : result.phases) {
      if (p.goodput_qps < config.min_goodput_fraction * peak) {
        violate("congestion collapse at factor " +
                std::to_string(p.load_factor) + ": goodput " +
                std::to_string(p.goodput_qps) + " qps vs peak " +
                std::to_string(peak) + " qps");
      }
    }
  }

  // Invariant 4: no priority inversion, judged per adequately-sampled
  // phase.
  for (const OverloadPhaseResult& p : result.phases) {
    if (p.interactive_issued < config.min_class_sample ||
        p.background_issued < config.min_class_sample) {
      continue;
    }
    const double irate = static_cast<double>(p.interactive_ok) /
                         static_cast<double>(p.interactive_issued);
    const double brate = static_cast<double>(p.background_ok) /
                         static_cast<double>(p.background_issued);
    if (irate + config.inversion_tolerance < brate) {
      violate("priority inversion at factor " +
              std::to_string(p.load_factor) + ": interactive " +
              std::to_string(irate) + " vs background " +
              std::to_string(brate));
    }
  }

  // Invariant 6: the books close. Everything has drained, so the
  // conservation law must balance exactly, and every issued request was
  // accounted once at admission.
  server.Shutdown();
  const ServeStats stats = server.stats();
  result.issued = issued_total;
  result.submitted = stats.submitted;
  result.shed_admission = stats.shed_admission;
  result.shed_hopeless = stats.shed_hopeless;
  result.shed_displaced = stats.shed_displaced;
  result.brownout_served = stats.brownout_served;
  result.limiter_limit = stats.limiter_limit;
  if (stats.flights + stats.coalesced_waiters + stats.cache_short_circuits +
          stats.expired_in_queue + stats.shed_queue() !=
      stats.submitted) {
    violate("conservation violated: flights " + std::to_string(stats.flights) +
            " + coalesced " + std::to_string(stats.coalesced_waiters) +
            " + cache " + std::to_string(stats.cache_short_circuits) +
            " + expired_in_queue " + std::to_string(stats.expired_in_queue) +
            " + shed_queue " + std::to_string(stats.shed_queue()) +
            " != submitted " + std::to_string(stats.submitted));
  }
  if (stats.submitted + stats.rejected() + stats.shed_admission +
          stats.brownout_served !=
      issued_total) {
    violate("admission accounting violated: submitted " +
            std::to_string(stats.submitted) + " + rejected " +
            std::to_string(stats.rejected()) + " + shed_admission " +
            std::to_string(stats.shed_admission) + " + brownout_served " +
            std::to_string(stats.brownout_served) + " != issued " +
            std::to_string(issued_total));
  }
  return result;
}

}  // namespace chaos
}  // namespace viewrewrite

#endif  // VIEWREWRITE_TESTS_CHAOS_OVERLOAD_HARNESS_H_
