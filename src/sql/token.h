#ifndef VIEWREWRITE_SQL_TOKEN_H_
#define VIEWREWRITE_SQL_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/limits.h"
#include "common/result.h"
#include "sql/value.h"

namespace viewrewrite {

enum class TokenType {
  kIdentifier,   // table/column/function names (case-insensitive)
  kKeyword,      // recognized SQL keywords, text stored upper-cased
  kInteger,      // 123
  kFloat,        // 1.5, .5, 2.
  kString,       // 'abc' with '' escaping
  kOperator,     // = <> != < <= > >= + - * / ( ) , . ; $
  kEnd,          // end of input sentinel
};

/// One lexical token with its source offset (for error messages).
struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // keywords upper-cased; identifiers lower-cased
  size_t offset = 0;  // byte offset in the original query string
  /// TokenizeTemplate only: the $param slot (1-based) of a lifted literal,
  /// 0 for every other token.
  uint32_t param = 0;

  bool IsKeyword(const char* kw) const;
  bool IsOperator(const char* op) const;
};

/// Tokenizes `sql`. The final element is always a kEnd token. SQL keywords
/// are recognized case-insensitively from a fixed list; everything else
/// alphabetic is an identifier (lower-cased, since SQL identifiers are
/// case-insensitive across database platforms).
///
/// Resource governance: input larger than `limits.max_sql_bytes` is
/// refused before any scanning, and the token stream is capped at
/// `limits.max_tokens` — both with kResourceExhausted.
Result<std::vector<Token>> Tokenize(
    const std::string& sql,
    const ResourceLimits& limits = ResourceLimits::Defaults());

/// True if `word` (upper-cased) is a recognized SQL keyword.
bool IsSqlKeyword(const std::string& upper_word);

/// The value of a literal token: kInteger (strict int64; overflow is
/// kInvalidArgument naming `offset`), kFloat, or kString (`text` already
/// unescaped, as in Token::text). The parser and MakeQueryShape share
/// it, so a literal converts the same way on both serve paths.
Result<Value> LiteralValue(TokenType type, const std::string& text,
                           size_t offset);

// ---- Query templates --------------------------------------------------------
//
// Lifting rule: an integer, float or string literal that comes directly
// after `=`, `<>` (or `!=`), `<`, `<=`, `>` or `>=` is lifted out of the
// text into a parameter slot. Every other literal (LIMIT counts, IN
// lists, the `5` of `-5`, select-list constants) stays part of the text.
// Lifted literals with equal values (same type, same value) share one
// slot, so comparisons of literal text that the rewriter makes (e.g.
// deduplicating `x = 5` against `x = 5`) come out the same for the
// template as for the literal query. A text in which a lifted value
// prints like a literal it shares no slot with (`x = 5` next to
// `x = 5.0`, or next to a kept `5`) has no shape: there the template's
// distinct `$k` would compare unequal where the literal texts are equal.

/// The literal-free form of a statement. Two texts with equal keys parse
/// (with TokenizeTemplate) to the same template, differing only in the
/// values bound to its slots.
struct QueryShape {
  /// The normalized lexemes, space-separated: keywords upper-cased,
  /// identifiers lower-cased, kept literals as `#` plus a type tag plus
  /// the source text (`#i5`; no lexeme starts with `#`, so none keys like
  /// an identifier), lifted literals as `$k` plus a type tag.
  std::string key;
  /// The lifted values: params[k - 1] binds `$k`.
  std::vector<Value> params;
};

/// Computes the shape of `sql` in one pass of the lexer, which allocates
/// nothing beyond the key and the literal values. Returns false when the
/// text breaks `limits` (size or token count), does not lex, has a
/// literal that does not convert, or has a lifted value that prints like
/// another literal (above): the caller then takes the literal path,
/// which reports any error exactly as before.
bool MakeQueryShape(std::string_view sql, const ResourceLimits& limits,
                    QueryShape* shape);

/// Tokenize, with each lifted literal marked by its slot (Token::param),
/// numbered exactly as MakeQueryShape numbers them.
Result<std::vector<Token>> TokenizeTemplate(
    const std::string& sql,
    const ResourceLimits& limits = ResourceLimits::Defaults());

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_TOKEN_H_
