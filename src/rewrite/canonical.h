#ifndef VIEWREWRITE_REWRITE_CANONICAL_H_
#define VIEWREWRITE_REWRITE_CANONICAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sql/ast.h"

namespace viewrewrite {

/// Canonical textual form of a rewritten query. The SQL printer emits a
/// fully parenthesized, single-line canonical rendering, so two rewritten
/// queries with equal canonical SQL are structurally identical and answer
/// identically from the same synopses — the property the serve-path
/// answer cache keys on.
std::string CanonicalRewrittenSql(const RewrittenQuery& rq);

/// Cache key for a (rewritten query, parameter bindings) pair: the
/// canonical SQL followed by the sorted parameter map. Two Submit calls
/// with the same key receive bit-identical answers, so the cached value
/// can be returned without touching the synopsis cells.
std::string CanonicalCacheKey(const RewrittenQuery& rq,
                              const std::map<std::string, Value>& params);

/// Appends the parameter part of CanonicalCacheKey: `|$name=value` for
/// each binding, in name order.
void AppendParamKey(const std::map<std::string, Value>& params,
                    std::string* key);

/// FNV-1a 64-bit hash, used for cache shard selection.
uint64_t Fnv1a64(std::string_view s);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_REWRITE_CANONICAL_H_
