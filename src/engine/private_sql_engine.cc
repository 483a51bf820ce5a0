#include "engine/private_sql_engine.h"

#include <chrono>
#include <set>

#include "engine/engine_common.h"
#include "rewrite/analysis.h"
#include "sql/parser.h"

namespace viewrewrite {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

RewriteOptions BaselineRewriteOptions(RewriteOptions base) {
  // Materialization-only rewriting: keep subquery constants inside the
  // view body so they end up in the view signature.
  base.enable_hoist = false;
  base.enable_merge = false;
  base.enable_key_filter_promotion = false;
  return base;
}

void CollectDerivedAliases(const TableRef& ref, std::set<std::string>* out) {
  switch (ref.kind) {
    case TableRefKind::kBase:
      return;
    case TableRefKind::kDerived:
      out->insert(static_cast<const DerivedTableRef&>(ref).alias);
      return;
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      CollectDerivedAliases(*j.left, out);
      CollectDerivedAliases(*j.right, out);
      return;
    }
  }
}

}  // namespace

PrivateSqlEngine::PrivateSqlEngine(const Database& db, PrivacyPolicy policy,
                                   EngineOptions options)
    : db_(db),
      policy_(std::move(policy)),
      options_(options),
      rewriter_(db.schema(),
                BaselineRewriteOptions(
                    RewriteWithLimits(options.rewrite, options.limits))),
      views_(db.schema(), policy_,
             SynopsisWithLimits(options.synopsis, options.limits)),
      executor_(db),
      rng_(options.seed) {}

Status PrivateSqlEngine::Prepare(const std::vector<std::string>& workload) {
  stats_ = EngineStats{};
  stats_.num_queries = workload.size();
  report_ = PrepareReport{};
  report_.query_status.assign(workload.size(), Status::OK());
  const bool strict = options_.strict;
  auto quarantine = [&](size_t i, Status st) {
    report_.query_status[i] = std::move(st);
    ++report_.num_quarantined;
  };

  auto t0 = std::chrono::steady_clock::now();
  rewritten_.clear();
  rewritten_.resize(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto rewrite_one = [&]() -> Result<RewrittenQuery> {
      VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt,
                          ParseSelect(workload[i], options_.limits));
      return rewriter_.Rewrite(*stmt);
    };
    Result<RewrittenQuery> rq = rewrite_one();
    if (!rq.ok()) {
      if (strict) return rq.status();
      quarantine(i, rq.status());
      continue;
    }
    rewritten_[i] = std::move(rq).value();
  }
  stats_.rewrite_seconds = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  bound_.clear();
  bound_.resize(workload.size());
  // Subquery-derived predicates (anything touching a derived table, i.e.
  // a rewritten subquery) are baked into the view; chain-link queries —
  // PrivateSQL's per-subquery views — bake all their predicates.
  ViewManager::BakePredicate bake_all = [](const Expr&) { return true; };
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!report_.query_status[i].ok()) continue;
    const RewrittenQuery& rq = rewritten_[i];
    auto bind_one = [&]() -> Result<BoundRewrittenQuery> {
      BoundRewrittenQuery bq;
      for (const ChainLink& link : rq.chain) {
        VR_ASSIGN_OR_RETURN(BoundQuery b,
                            views_.RegisterScalar(*link.query, bake_all));
        BoundRewrittenQuery::Link l;
        l.var = link.var;
        l.query = std::move(b);
        bq.chain.push_back(std::move(l));
      }
      for (const auto& term : rq.combination.terms) {
        std::set<std::string> derived_aliases;
        for (const auto& f : term.query->from) {
          CollectDerivedAliases(*f, &derived_aliases);
        }
        ViewManager::BakePredicate bake =
            [&derived_aliases](const Expr& conjunct) {
              std::vector<const ColumnRefExpr*> refs;
              CollectColumnRefsShallow(&conjunct, &refs);
              for (const ColumnRefExpr* r : refs) {
                if (derived_aliases.count(r->table) > 0) return true;
              }
              return false;
            };
        VR_ASSIGN_OR_RETURN(BoundQuery b,
                            views_.RegisterScalar(*term.query, bake));
        BoundRewrittenQuery::Term t;
        t.coeff = term.coeff;
        t.query = std::move(b);
        bq.terms.push_back(std::move(t));
      }
      return bq;
    };
    Result<BoundRewrittenQuery> bq = bind_one();
    if (!bq.ok()) {
      if (strict) return bq.status();
      quarantine(i, bq.status());
      continue;
    }
    bound_[i] = std::move(bq).value();
  }
  stats_.view_generation_seconds = SecondsSince(t0);
  stats_.num_views = views_.NumViews();

  t0 = std::chrono::steady_clock::now();
  if (strict || views_.NumViews() > 0) {
    VR_RETURN_NOT_OK(views_.Publish(db_, options_.epsilon, &rng_,
                                    options_.budget_allocation,
                                    /*degraded=*/!strict));
    report_.num_views_failed = views_.failed_views().size();
    if (report_.num_views_failed > 0) {
      for (size_t i = 0; i < bound_.size(); ++i) {
        if (!report_.query_status[i].ok()) continue;
        if (const Status* failure = views_.BindingFailure(bound_[i])) {
          quarantine(i, *failure);
        }
      }
    }
  }
  stats_.publish_seconds = SecondsSince(t0);
  SnapshotBudget(views_, &stats_);

  report_.num_prepared = workload.size() - report_.num_quarantined;
  if (!workload.empty() && report_.num_prepared == 0) {
    return Status::ExecutionError(
        "all " + std::to_string(workload.size()) +
        " workload queries failed to prepare; first error: " +
        report_.query_status.front().ToString());
  }
  return Status::OK();
}

Result<double> PrivateSqlEngine::NoisyAnswer(size_t i) {
  if (i >= bound_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (!report_.query_status[i].ok()) return report_.query_status[i];
  auto t0 = std::chrono::steady_clock::now();
  Result<double> out = AnswerBound(views_.synopses(), bound_[i]);
  stats_.answer_seconds += SecondsSince(t0);
  return out;
}

Result<double> PrivateSqlEngine::TrueAnswer(size_t i) const {
  if (i >= rewritten_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (!report_.query_status[i].ok()) return report_.query_status[i];
  return executor_.ExecuteRewritten(rewritten_[i]);
}

Result<double> PrivateSqlEngine::ExactViewAnswer(size_t i) const {
  if (i >= bound_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (!report_.query_status[i].ok()) return report_.query_status[i];
  return AnswerBound(views_.ground_truth(), bound_[i]);
}

Result<double> PrivateSqlEngine::RelativeError(size_t i) {
  VR_ASSIGN_OR_RETURN(double truth, ExactViewAnswer(i));
  VR_ASSIGN_OR_RETURN(double noisy, NoisyAnswer(i));
  return RelativeErrorMetric(truth, noisy);
}

}  // namespace viewrewrite
