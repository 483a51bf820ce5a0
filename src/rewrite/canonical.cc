#include "rewrite/canonical.h"

#include "sql/printer.h"

namespace viewrewrite {

std::string CanonicalRewrittenSql(const RewrittenQuery& rq) {
  return ToSql(rq);
}

std::string CanonicalCacheKey(const RewrittenQuery& rq,
                              const std::map<std::string, Value>& params) {
  std::string key = CanonicalRewrittenSql(rq);
  AppendParamKey(params, &key);
  return key;
}

void AppendParamKey(const std::map<std::string, Value>& params,
                    std::string* key) {
  // std::map iterates sorted, so the rendering is order-independent.
  for (const auto& [name, value] : params) {
    *key += "|$";
    *key += name;
    *key += '=';
    value.AppendTo(key);
  }
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace viewrewrite
