#ifndef VIEWREWRITE_ENGINE_ENGINE_COMMON_H_
#define VIEWREWRITE_ENGINE_ENGINE_COMMON_H_

// Helpers shared by ViewRewriteEngine and PrivateSqlEngine, so both
// engines govern their input and report their ledger the same way. Not
// part of the engines' public interface.

#include "engine/viewrewrite_engine.h"

namespace viewrewrite {

/// EngineOptions::limits is the single governance knob: these stamp it
/// into the sub-option structs that rewriting and synopsis construction
/// consume.
RewriteOptions RewriteWithLimits(RewriteOptions rewrite,
                                 const ResourceLimits& l);
SynopsisOptions SynopsisWithLimits(SynopsisOptions synopsis,
                                   const ResourceLimits& l);

/// Copies the accountant's ledger summary into `stats`, after every path
/// that mutates the ledger. A poisoned accountant already reports 0 from
/// total()/remaining(); `budget_poisoned` makes the poisoning visible
/// instead of looking like an untouched budget.
void SnapshotBudget(const ViewManager& views, EngineStats* stats);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_ENGINE_ENGINE_COMMON_H_
