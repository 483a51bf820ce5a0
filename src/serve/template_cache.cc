#include "serve/template_cache.h"

#include <cctype>

namespace viewrewrite {

void SplitCanonicalSql(const std::string& sql, size_t num_params,
                       QueryTemplate* tmpl) {
  tmpl->segments.assign(1, std::string());
  tmpl->slots.clear();
  size_t i = 0;
  while (i < sql.size()) {
    if (sql[i] == '$') {
      size_t j = i + 1;
      uint64_t slot = 0;
      while (j < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[j])) &&
             slot <= num_params) {
        slot = slot * 10 + static_cast<uint64_t>(sql[j] - '0');
        ++j;
      }
      // Only the template's own slots split; `$v0` chain variables and
      // user `$name` parameters stay text.
      if (j > i + 1 && slot >= 1 && slot <= num_params &&
          (j == sql.size() ||
           !std::isalnum(static_cast<unsigned char>(sql[j])))) {
        tmpl->slots.push_back(static_cast<uint32_t>(slot));
        tmpl->segments.emplace_back();
        i = j;
        continue;
      }
    }
    tmpl->segments.back() += sql[i];
    ++i;
  }
}

void AppendCanonicalSql(const QueryTemplate& tmpl,
                        const std::vector<Value>& params, std::string* out) {
  *out += tmpl.segments[0];
  for (size_t i = 0; i < tmpl.slots.size(); ++i) {
    params[tmpl.slots[i] - 1].AppendTo(out);
    *out += tmpl.segments[i + 1];
  }
}

}  // namespace viewrewrite
