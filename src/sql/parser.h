#ifndef VIEWREWRITE_SQL_PARSER_H_
#define VIEWREWRITE_SQL_PARSER_H_

#include <string>

#include "common/limits.h"
#include "common/result.h"
#include "sql/ast.h"

namespace viewrewrite {

/// Parses one SQL SELECT statement (optionally with WITH clauses and a
/// trailing semicolon) into an AST.
///
/// Supported grammar (the subset the paper's query classes need):
///   [WITH name AS (select) [, ...]]
///   SELECT [DISTINCT] item [, ...]
///   FROM table_ref [, ...]
///   [WHERE expr] [GROUP BY cols] [HAVING expr]
/// with joins (JOIN/INNER/LEFT [OUTER]/NATURAL ... ON), derived tables,
/// scalar/EXISTS/IN/ANY/SOME/ALL subqueries, aggregates with DISTINCT,
/// COALESCE, arithmetic, AND/OR/NOT, IS [NOT] NULL, BETWEEN, and `$param`
/// placeholders for chained queries.
///
/// Resource governance (`limits`): input size and token count are
/// enforced by the tokenizer; nesting depth, operator-chain length, and
/// total AST node count are enforced during parsing, and the finished
/// tree is re-measured with ComputeAstStats. Any breach returns
/// kResourceExhausted; malformed integer literals (overflowing int64)
/// return kInvalidArgument. A statement that parses OK is therefore safe
/// for every downstream recursive walk.
Result<SelectStmtPtr> ParseSelect(const std::string& sql);
Result<SelectStmtPtr> ParseSelect(const std::string& sql,
                                  const ResourceLimits& limits);

/// Parses `sql` as a query template: every literal the lifting rule
/// lifts (sql/token.h) becomes the ParamExpr `$k` of its QueryShape slot,
/// named by the decimal slot number — a name no SQL text can spell, since
/// `$` must be followed by an identifier. Limits apply as in ParseSelect.
/// It has no `parse` fault point: the serve path runs it only after
/// ParseSelect parsed the same text, so a request counts one parse hit.
Result<SelectStmtPtr> ParseSelectTemplate(const std::string& sql,
                                          const ResourceLimits& limits);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_PARSER_H_
