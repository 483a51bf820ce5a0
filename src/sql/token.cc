#include "sql/token.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "common/strings.h"

namespace viewrewrite {

namespace {

/// One lexeme as a view into the scanned text. `text` is the source
/// bytes as written: keywords and identifiers keep their case, string
/// literals keep their quotes and '' escapes, and `!=` stays `!=`.
struct Lexeme {
  TokenType type = TokenType::kEnd;
  std::string_view text;
  size_t offset = 0;
};

/// The SQL lexer. Next scans one lexeme at a time from a borrowed view of
/// the text and allocates nothing, so the serve path can key a request
/// by its lexemes without building tokens. Tokenize, TokenizeTemplate and
/// MakeQueryShape all run on it: there is one lexer.
class Scanner {
 public:
  explicit Scanner(std::string_view sql) : sql_(sql) {}

  /// Scans the next lexeme into `*out` (kEnd once the input is used up).
  /// Returns false on a lexical error; status() then describes it.
  bool Next(Lexeme* out);

  /// Offset of the first byte not yet scanned (whitespace included).
  size_t position() const { return pos_; }

  /// The error that stopped Next, or OK.
  Status status() const;

 private:
  enum class Error { kNone, kUnterminatedString, kUnexpectedChar };

  std::string_view sql_;
  size_t pos_ = 0;
  Error error_ = Error::kNone;
  size_t error_offset_ = 0;
};

constexpr std::string_view kKeywords[] = {
    "SELECT", "FROM",   "WHERE",  "GROUP",    "BY",     "HAVING",
    "AS",     "AND",    "OR",     "NOT",      "IN",     "EXISTS",
    "ANY",    "SOME",   "ALL",    "DISTINCT", "JOIN",   "INNER",
    "LEFT",   "RIGHT",  "OUTER",  "NATURAL",  "ON",     "WITH",
    "NULL",   "IS",     "BETWEEN", "LIKE",    "CASE",   "WHEN",
    "THEN",   "ELSE",   "END",    "UNION",    "ORDER",  "LIMIT",
    "ASC",    "DESC",   "TRUE",   "FALSE",
};

bool IsKeywordWord(std::string_view word) {
  for (std::string_view kw : kKeywords) {
    if (EqualsIgnoreCase(kw, word)) return true;
  }
  return false;
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsAlpha(char c) { return std::isalpha(static_cast<unsigned char>(c)); }
bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }

bool Scanner::Next(Lexeme* out) {
  const size_t n = sql_.size();
  size_t& i = pos_;
  while (i < n) {
    if (IsSpace(sql_[i])) {
      ++i;
    } else if (sql_[i] == '-' && i + 1 < n && sql_[i + 1] == '-') {
      while (i < n && sql_[i] != '\n') ++i;  // line comment: -- ... \n
    } else {
      break;
    }
  }
  out->offset = i;
  if (i == n) {
    out->type = TokenType::kEnd;
    out->text = std::string_view();
    return true;
  }
  const size_t start = i;
  const char c = sql_[i];
  if (IsAlpha(c) || c == '_') {
    while (i < n && (IsAlnum(sql_[i]) || sql_[i] == '_')) ++i;
    out->text = sql_.substr(start, i - start);
    out->type = IsKeywordWord(out->text) ? TokenType::kKeyword
                                         : TokenType::kIdentifier;
    return true;
  }
  if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(sql_[i + 1]))) {
    bool saw_dot = false;
    bool saw_exp = false;
    while (i < n && (IsDigit(sql_[i]) || (!saw_dot && sql_[i] == '.'))) {
      if (sql_[i] == '.') saw_dot = true;
      ++i;
    }
    // Scientific notation: [eE][+-]?digits.
    if (i < n && (sql_[i] == 'e' || sql_[i] == 'E')) {
      size_t j = i + 1;
      if (j < n && (sql_[j] == '+' || sql_[j] == '-')) ++j;
      if (j < n && IsDigit(sql_[j])) {
        saw_exp = true;
        i = j;
        while (i < n && IsDigit(sql_[i])) ++i;
      }
    }
    out->type =
        (saw_dot || saw_exp) ? TokenType::kFloat : TokenType::kInteger;
    out->text = sql_.substr(start, i - start);
    return true;
  }
  if (c == '\'') {
    ++i;
    while (true) {
      if (i >= n) {
        error_ = Error::kUnterminatedString;
        error_offset_ = start;
        return false;
      }
      if (sql_[i] == '\'') {
        if (i + 1 < n && sql_[i + 1] == '\'') {
          i += 2;
          continue;
        }
        ++i;
        break;
      }
      ++i;
    }
    out->type = TokenType::kString;
    out->text = sql_.substr(start, i - start);
    return true;
  }
  // Multi-char operators first.
  if (i + 1 < n) {
    const std::string_view two = sql_.substr(i, 2);
    if (two == "<>" || two == "!=" || two == "<=" || two == ">=" ||
        two == ":=") {
      i += 2;
      out->type = TokenType::kOperator;
      out->text = two;
      return true;
    }
  }
  if (std::string_view("=<>+-*/(),.;$").find(c) != std::string_view::npos) {
    ++i;
    out->type = TokenType::kOperator;
    out->text = sql_.substr(start, 1);
    return true;
  }
  error_ = Error::kUnexpectedChar;
  error_offset_ = start;
  return false;
}

Status Scanner::status() const {
  switch (error_) {
    case Error::kNone:
      return Status::OK();
    case Error::kUnterminatedString:
      return Status::ParseError("unterminated string literal at offset " +
                                std::to_string(error_offset_));
    case Error::kUnexpectedChar:
      return Status::ParseError("unexpected character '" +
                                std::string(1, sql_[error_offset_]) +
                                "' at offset " + std::to_string(error_offset_));
  }
  return Status::OK();
}

/// The content of a string literal lexeme: quotes stripped, '' unescaped.
std::string UnescapeString(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() - 2);
  for (size_t i = 1; i + 1 < raw.size(); ++i) {
    out += raw[i];
    if (raw[i] == '\'') ++i;  // '' -> '
  }
  return out;
}

/// The lifting rule's operator test, on the lexeme as written.
bool IsComparisonLexeme(const Lexeme& lex) {
  if (lex.type != TokenType::kOperator) return false;
  const std::string_view t = lex.text;
  return t == "=" || t == "<>" || t == "!=" || t == "<" || t == "<=" ||
         t == ">" || t == ">=";
}

bool IsLiteralType(TokenType type) {
  return type == TokenType::kInteger || type == TokenType::kFloat ||
         type == TokenType::kString;
}

char TypeTag(TokenType type) {
  switch (type) {
    case TokenType::kInteger:
      return 'i';
    case TokenType::kFloat:
      return 'f';
    default:
      return 's';
  }
}

/// Runs the lexer over `sql` under `limits`, calling `fn(lexeme, slot)`
/// for every lexeme before kEnd. With `lift`, `slot` is the 1-based
/// parameter slot of a lifted literal (its value in `(*params)[slot-1]`)
/// and 0 otherwise; without it, `slot` is always 0 and `params` unused.
template <typename Fn>
Status WalkLexemes(std::string_view sql, const ResourceLimits& limits,
                   bool lift, std::vector<Value>* params, Fn&& fn) {
  if (sql.size() > limits.max_sql_bytes) {
    return Status::ResourceExhausted(
        "SQL text of " + std::to_string(sql.size()) +
        " bytes exceeds the limit (" + std::to_string(limits.max_sql_bytes) +
        ")");
  }
  Scanner scanner(sql);
  Lexeme prev;
  Lexeme lex;
  size_t count = 0;
  while (true) {
    // The cap applies while input remains, trailing whitespace included.
    if (count >= limits.max_tokens && scanner.position() < sql.size()) {
      return Status::ResourceExhausted(
          "SQL token stream exceeds the limit (" +
          std::to_string(limits.max_tokens) + " tokens)");
    }
    if (!scanner.Next(&lex)) return scanner.status();
    if (lex.type == TokenType::kEnd) return Status::OK();
    ++count;
    uint32_t slot = 0;
    if (lift && IsLiteralType(lex.type) && IsComparisonLexeme(prev)) {
      VR_ASSIGN_OR_RETURN(
          Value v, LiteralValue(lex.type,
                                lex.type == TokenType::kString
                                    ? UnescapeString(lex.text)
                                    : std::string(lex.text),
                                lex.offset));
      for (size_t k = 0; k < params->size(); ++k) {
        const Value& seen = (*params)[k];
        if (seen.type() == v.type() && seen == v) {
          slot = static_cast<uint32_t>(k + 1);
          break;
        }
      }
      if (slot == 0) {
        params->push_back(std::move(v));
        slot = static_cast<uint32_t>(params->size());
      }
    }
    fn(lex, slot);
    prev = lex;
  }
}

Token MakeToken(const Lexeme& lex, uint32_t slot) {
  Token tok;
  tok.type = lex.type;
  tok.offset = lex.offset;
  tok.param = slot;
  switch (lex.type) {
    case TokenType::kKeyword:
      tok.text = ToUpper(lex.text);
      break;
    case TokenType::kIdentifier:
      tok.text = ToLower(lex.text);
      break;
    case TokenType::kString:
      tok.text = UnescapeString(lex.text);
      break;
    case TokenType::kOperator:
      tok.text = lex.text == "!=" ? "<>" : std::string(lex.text);
      break;
    default:
      tok.text = std::string(lex.text);
      break;
  }
  return tok;
}

Result<std::vector<Token>> TokenizeImpl(const std::string& sql,
                                        const ResourceLimits& limits,
                                        bool lift) {
  std::vector<Token> out;
  std::vector<Value> params;
  VR_RETURN_NOT_OK(WalkLexemes(sql, limits, lift, &params,
                               [&](const Lexeme& lex, uint32_t slot) {
                                 out.push_back(MakeToken(lex, slot));
                               }));
  Token end;
  end.type = TokenType::kEnd;
  end.offset = sql.size();
  out.push_back(std::move(end));
  return out;
}

}  // namespace

bool IsSqlKeyword(const std::string& upper_word) {
  for (std::string_view kw : kKeywords) {
    if (kw == upper_word) return true;
  }
  return false;
}

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

bool Token::IsOperator(const char* op) const {
  return type == TokenType::kOperator && text == op;
}

Result<std::vector<Token>> Tokenize(const std::string& sql,
                                    const ResourceLimits& limits) {
  return TokenizeImpl(sql, limits, /*lift=*/false);
}

Result<std::vector<Token>> TokenizeTemplate(const std::string& sql,
                                            const ResourceLimits& limits) {
  return TokenizeImpl(sql, limits, /*lift=*/true);
}

Result<Value> LiteralValue(TokenType type, const std::string& text,
                           size_t offset) {
  switch (type) {
    case TokenType::kInteger: {
      // Strict: the whole text must convert and fit (std::strtoll would
      // saturate on overflow).
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno == ERANGE || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("integer literal '" + text +
                                       "' at offset " +
                                       std::to_string(offset) +
                                       " does not fit in int64");
      }
      return Value::Int(static_cast<int64_t>(v));
    }
    case TokenType::kFloat:
      return Value::Double(std::strtod(text.c_str(), nullptr));
    case TokenType::kString:
      return Value::String(text);
    default:
      return Status::InvalidArgument("token at offset " +
                                     std::to_string(offset) +
                                     " is not a literal");
  }
}

namespace {

/// True when `a` and `b` print as the same SQL literal although they are
/// different values. Only an integer and a float can (`5` and `5.0` both
/// print `5`); strings print quoted, and doubles (printed to round trip)
/// and integers each print injectively.
bool PrintCollides(const Value& a, const Value& b) {
  if (a.type() == b.type() || !a.is_numeric() || !b.is_numeric()) {
    return false;
  }
  return a.ToString() == b.ToString();
}

}  // namespace

bool MakeQueryShape(std::string_view sql, const ResourceLimits& limits,
                    QueryShape* shape) {
  shape->key.clear();
  shape->params.clear();
  shape->key.reserve(sql.size() + 16);
  std::string& key = shape->key;
  // The kept literals' values, checked against the lifted ones below.
  std::vector<Value> kept;
  bool kept_unconvertible = false;
  const Status st = WalkLexemes(
      sql, limits, /*lift=*/true, &shape->params,
      [&](const Lexeme& lex, uint32_t slot) {
        if (!key.empty()) key += ' ';
        if (slot > 0) {
          key += '$';
          key += std::to_string(slot);
          key += TypeTag(lex.type);
          return;
        }
        if (IsLiteralType(lex.type)) {
          Result<Value> v = LiteralValue(
              lex.type,
              lex.type == TokenType::kString ? UnescapeString(lex.text)
                                             : std::string(lex.text),
              lex.offset);
          if (v.ok()) {
            kept.push_back(std::move(*v));
          } else {
            kept_unconvertible = true;  // the literal path reports it
          }
        }
        switch (lex.type) {
          case TokenType::kKeyword:
            for (char c : lex.text) {
              key += static_cast<char>(
                  std::toupper(static_cast<unsigned char>(c)));
            }
            break;
          case TokenType::kIdentifier:
            for (char c : lex.text) {
              key += static_cast<char>(
                  std::tolower(static_cast<unsigned char>(c)));
            }
            break;
          case TokenType::kOperator:
            key += lex.text == "!=" ? std::string_view("<>") : lex.text;
            break;
          default:
            // `#` starts no lexeme, so a kept literal never keys like an
            // identifier (`5` is `#i5`, the column `i5` is `i5`).
            key += '#';
            key += TypeTag(lex.type);
            key += lex.text;
            break;
        }
      });
  if (!st.ok() || kept_unconvertible) return false;
  // The rewriter compares literals by their printed text (merging equal
  // derived tables, deduplicating DNF atoms), where `$1` and `$2` never
  // compare equal. A template is only sound for texts in which no lifted
  // value prints like another literal it does not share a slot with;
  // any other text takes the literal path.
  const std::vector<Value>& params = shape->params;
  for (size_t i = 0; i < params.size(); ++i) {
    for (size_t j = i + 1; j < params.size(); ++j) {
      if (PrintCollides(params[i], params[j])) return false;
    }
    for (const Value& k : kept) {
      if (k.type() == params[i].type() ? k == params[i]
                                       : PrintCollides(k, params[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace viewrewrite
