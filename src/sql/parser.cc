#include "sql/parser.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "sql/token.h"

namespace viewrewrite {

namespace {

/// RAII wrapper around LimitTracker::EnterDepth/LeaveDepth: charges one
/// level of parser recursion on construction and releases it on scope
/// exit (on failure nothing was charged, so nothing is released).
class DepthScope {
 public:
  DepthScope(LimitTracker& tracker, const char* what) : tracker_(tracker) {
    status_ = tracker_.EnterDepth(what);
    entered_ = status_.ok();
  }
  ~DepthScope() {
    if (entered_) tracker_.LeaveDepth();
  }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

  const Status& status() const { return status_; }

 private:
  LimitTracker& tracker_;
  Status status_;
  bool entered_ = false;
};

/// Strict int64 parse for an integer token: the whole text must convert
/// and fit, else kInvalidArgument.
Result<int64_t> ParseInt64Token(const Token& tok) {
  VR_ASSIGN_OR_RETURN(Value v,
                      LiteralValue(TokenType::kInteger, tok.text, tok.offset));
  return v.AsInt();
}

/// Strict parse of `-<integer token>`. The magnitude converts as uint64
/// so that INT64_MIN stays expressible: its magnitude 2^63 does not fit
/// a bare int64 literal and would be refused before the unary-minus fold
/// could negate it.
Result<int64_t> ParseNegatedInt64Token(const Token& tok) {
  constexpr uint64_t kInt64MinMagnitude =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1;
  errno = 0;
  char* end = nullptr;
  const char* begin = tok.text.c_str();
  unsigned long long mag = std::strtoull(begin, &end, 10);
  if (errno == ERANGE || end == begin || *end != '\0' ||
      mag > kInt64MinMagnitude) {
    return Status::InvalidArgument("integer literal '-" + tok.text +
                                   "' at offset " +
                                   std::to_string(tok.offset) +
                                   " does not fit in int64");
  }
  if (mag == kInt64MinMagnitude) return std::numeric_limits<int64_t>::min();
  return -static_cast<int64_t>(mag);
}

/// Recursive-descent parser over the token stream. `IS [NOT] NULL` is
/// represented as the special function calls isnull(x) / isnotnull(x);
/// `BETWEEN a AND b` is desugared to (x >= a AND x <= b) at parse time.
///
/// Governance: every recursion cycle (subqueries, parenthesized
/// expressions, NOT chains, unary-minus chains) passes through a
/// DepthScope, and the iterative left-deep chain builders (AND/OR,
/// additive, multiplicative, joins) charge chain length against the same
/// depth budget — so the tree the parser hands back can always be
/// destroyed, cloned, and walked recursively without overflowing the
/// machine stack.
class Parser {
 public:
  Parser(std::vector<Token> tokens, const ResourceLimits& limits)
      : tokens_(std::move(tokens)), tracker_(limits) {}

  Result<SelectStmtPtr> ParseStatement() {
    VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelectStmt());
    if (Peek().IsOperator(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Err("unexpected trailing input");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(TokenType type, const char* text) {
    const Token& t = Peek();
    if (t.type == type && t.text == text) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const char* kw) {
    return Accept(TokenType::kKeyword, kw);
  }
  bool AcceptOperator(const char* op) {
    return Accept(TokenType::kOperator, op);
  }
  Status Expect(TokenType type, const char* text) {
    if (!Accept(type, text)) {
      return Status::ParseError(std::string("expected '") + text +
                                "' near offset " +
                                std::to_string(Peek().offset) + " (got '" +
                                Peek().text + "')");
    }
    return Status::OK();
  }
  Status ErrStatus(const std::string& msg) const {
    return Status::ParseError(msg + " near offset " +
                              std::to_string(Peek().offset) + " (got '" +
                              Peek().text + "')");
  }
  template <typename T = SelectStmtPtr>
  Result<T> Err(const std::string& msg) const {
    return ErrStatus(msg);
  }

  /// Charges `n` nodes toward max_ast_nodes; a breach is sticky (the
  /// parser aborts at the next VR_RETURN_NOT_OK).
  Status ChargeNodes(size_t n = 1) {
    return tracker_.AddNodes(n, "SQL statement");
  }
  /// Charges one link of an iteratively-built left-deep chain (AND/OR,
  /// + - * /, JOIN) against the depth budget: each link deepens the tree
  /// by one without any parser recursion.
  Status ChargeChain(size_t* chain, const char* what) {
    if (++*chain > tracker_.limits().max_ast_depth) {
      return Status::ResourceExhausted(
          std::string(what) + " chain exceeds the depth limit (" +
          std::to_string(tracker_.limits().max_ast_depth) + ")");
    }
    return Status::OK();
  }

  Result<SelectStmtPtr> ParseSelectStmt() {
    DepthScope scope(tracker_, "SELECT nesting");
    VR_RETURN_NOT_OK(scope.status());
    VR_RETURN_NOT_OK(ChargeNodes());
    auto stmt = std::make_unique<SelectStmt>();
    if (AcceptKeyword("WITH")) {
      while (true) {
        if (Peek().type != TokenType::kIdentifier) {
          return Err("expected WITH-clause name");
        }
        WithItem item;
        item.name = Advance().text;
        VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "AS"));
        VR_RETURN_NOT_OK(Expect(TokenType::kOperator, "("));
        VR_ASSIGN_OR_RETURN(item.query, ParseSelectStmt());
        VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
        stmt->with.push_back(std::move(item));
        if (!AcceptOperator(",")) break;
      }
    }
    VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "SELECT"));
    stmt->distinct = AcceptKeyword("DISTINCT");
    // Select list.
    while (true) {
      SelectItem item;
      if (Peek().IsOperator("*") && !Peek(1).IsOperator(".")) {
        Advance();
        item.is_star = true;
      } else {
        VR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Err("expected alias after AS");
          }
          item.alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier) {
          item.alias = Advance().text;  // bare alias
        }
      }
      stmt->items.push_back(std::move(item));
      if (!AcceptOperator(",")) break;
    }
    if (AcceptKeyword("FROM")) {
      while (true) {
        VR_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        if (!AcceptOperator(",")) break;
      }
    }
    if (AcceptKeyword("WHERE")) {
      VR_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "BY"));
      while (true) {
        VR_ASSIGN_OR_RETURN(ExprPtr col, ParseExpr());
        stmt->group_by.push_back(std::move(col));
        if (!AcceptOperator(",")) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      VR_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "BY"));
      while (true) {
        OrderItem item;
        VR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!AcceptOperator(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) {
        return Err("LIMIT expects an integer");
      }
      VR_ASSIGN_OR_RETURN(stmt->limit, ParseInt64Token(Advance()));
    }
    return stmt;
  }

  Result<TableRefPtr> ParseTableRef() {
    VR_ASSIGN_OR_RETURN(TableRefPtr left, ParseTablePrimary());
    size_t chain = 0;
    while (true) {
      JoinType type;
      bool natural = false;
      if (AcceptKeyword("JOIN")) {
        type = JoinType::kInner;
      } else if (AcceptKeyword("INNER")) {
        VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "JOIN"));
        type = JoinType::kInner;
      } else if (AcceptKeyword("LEFT")) {
        AcceptKeyword("OUTER");
        VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "JOIN"));
        type = JoinType::kLeft;
      } else if (AcceptKeyword("NATURAL")) {
        VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "JOIN"));
        type = JoinType::kNatural;
        natural = true;
      } else {
        break;
      }
      VR_RETURN_NOT_OK(ChargeChain(&chain, "JOIN"));
      VR_ASSIGN_OR_RETURN(TableRefPtr right, ParseTablePrimary());
      ExprPtr cond;
      if (AcceptKeyword("ON")) {
        if (natural) return Err<TableRefPtr>("NATURAL JOIN takes no ON");
        VR_ASSIGN_OR_RETURN(cond, ParseExpr());
      } else if (!natural) {
        return Err<TableRefPtr>("JOIN requires ON condition");
      }
      left = std::make_unique<JoinTableRef>(type, std::move(left),
                                            std::move(right), std::move(cond));
    }
    return left;
  }

  Result<TableRefPtr> ParseTablePrimary() {
    if (AcceptOperator("(")) {
      VR_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
      AcceptKeyword("AS");
      if (Peek().type != TokenType::kIdentifier) {
        return Err<TableRefPtr>("derived table requires an alias");
      }
      std::string alias = Advance().text;
      return TableRefPtr(
          std::make_unique<DerivedTableRef>(std::move(sub), std::move(alias)));
    }
    if (Peek().type != TokenType::kIdentifier) {
      return Err<TableRefPtr>("expected table name");
    }
    std::string name = Advance().text;
    std::string alias;
    if (AcceptKeyword("AS")) {
      if (Peek().type != TokenType::kIdentifier) {
        return Err<TableRefPtr>("expected alias after AS");
      }
      alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      alias = Advance().text;
    }
    return TableRefPtr(
        std::make_unique<BaseTableRef>(std::move(name), std::move(alias)));
  }

  // expr := or_expr
  Result<ExprPtr> ParseExpr() {
    DepthScope scope(tracker_, "expression nesting");
    VR_RETURN_NOT_OK(scope.status());
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    VR_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    size_t chain = 0;
    while (AcceptKeyword("OR")) {
      VR_RETURN_NOT_OK(ChargeChain(&chain, "OR"));
      VR_RETURN_NOT_OK(ChargeNodes());
      VR_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    VR_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    size_t chain = 0;
    while (AcceptKeyword("AND")) {
      VR_RETURN_NOT_OK(ChargeChain(&chain, "AND"));
      VR_RETURN_NOT_OK(ChargeNodes());
      VR_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    // `NOT EXISTS (...)` folds into ExistsExpr(negated) in ParsePredicate.
    if (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("EXISTS")) {
      return ParsePredicate();
    }
    if (AcceptKeyword("NOT")) {
      DepthScope scope(tracker_, "NOT chain");
      VR_RETURN_NOT_OK(scope.status());
      VR_RETURN_NOT_OK(ChargeNodes());
      VR_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      // NOT EXISTS / NOT IN are already folded below; a generic NOT wraps.
      return MakeNot(std::move(inner));
    }
    return ParsePredicate();
  }

  bool PeekSelectAfterParen() const {
    return Peek().IsOperator("(") && Peek(1).type == TokenType::kKeyword &&
           (Peek(1).text == "SELECT" || Peek(1).text == "WITH");
  }

  Result<ExprPtr> ParsePredicate() {
    if (Peek().IsKeyword("EXISTS") ||
        (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("EXISTS"))) {
      bool negated = AcceptKeyword("NOT");
      AcceptKeyword("EXISTS");
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, "("));
      VR_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
      return ExprPtr(std::make_unique<ExistsExpr>(std::move(sub), negated));
    }

    VR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "NULL"));
      std::vector<ExprPtr> args;
      args.push_back(std::move(lhs));
      return MakeFuncCall(negated ? "isnotnull" : "isnull", std::move(args));
    }

    // [NOT] IN / [NOT] BETWEEN
    bool negated = false;
    if (Peek().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN"))) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword("IN")) {
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, "("));
      if (Peek().IsKeyword("SELECT") || Peek().IsKeyword("WITH")) {
        VR_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
        VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
        return ExprPtr(std::make_unique<InExpr>(std::move(lhs),
                                                std::move(sub), negated));
      }
      std::vector<ExprPtr> list;
      while (true) {
        VR_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
        list.push_back(std::move(v));
        if (!AcceptOperator(",")) break;
      }
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
      return ExprPtr(std::make_unique<InExpr>(std::move(lhs), std::move(list),
                                              negated));
    }
    if (AcceptKeyword("BETWEEN")) {
      VR_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      VR_RETURN_NOT_OK(Expect(TokenType::kKeyword, "AND"));
      VR_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      ExprPtr lhs_copy = lhs->Clone();
      ExprPtr ge = MakeBinary(BinaryOp::kGe, std::move(lhs_copy), std::move(lo));
      ExprPtr le = MakeBinary(BinaryOp::kLe, std::move(lhs), std::move(hi));
      ExprPtr range = MakeAnd(std::move(ge), std::move(le));
      if (negated) return MakeNot(std::move(range));
      return range;
    }
    if (negated) return Err<ExprPtr>("dangling NOT");

    // Comparison, possibly quantified.
    BinaryOp op;
    if (AcceptOperator("=")) op = BinaryOp::kEq;
    else if (AcceptOperator("<>")) op = BinaryOp::kNe;
    else if (AcceptOperator("<=")) op = BinaryOp::kLe;
    else if (AcceptOperator(">=")) op = BinaryOp::kGe;
    else if (AcceptOperator("<")) op = BinaryOp::kLt;
    else if (AcceptOperator(">")) op = BinaryOp::kGt;
    else return lhs;

    if (Peek().IsKeyword("ANY") || Peek().IsKeyword("SOME") ||
        Peek().IsKeyword("ALL")) {
      Quantifier q = Peek().IsKeyword("ALL") ? Quantifier::kAll
                                             : Quantifier::kAny;
      Advance();
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, "("));
      VR_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
      VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
      return ExprPtr(std::make_unique<QuantifiedCmpExpr>(
          std::move(lhs), op, q, std::move(sub)));
    }
    VR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    VR_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    size_t chain = 0;
    while (true) {
      if (AcceptOperator("+")) {
        VR_RETURN_NOT_OK(ChargeChain(&chain, "additive"));
        VR_RETURN_NOT_OK(ChargeNodes());
        VR_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = MakeBinary(BinaryOp::kAdd, std::move(left), std::move(right));
      } else if (AcceptOperator("-")) {
        VR_RETURN_NOT_OK(ChargeChain(&chain, "additive"));
        VR_RETURN_NOT_OK(ChargeNodes());
        VR_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = MakeBinary(BinaryOp::kSub, std::move(left), std::move(right));
      } else {
        break;
      }
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    VR_ASSIGN_OR_RETURN(ExprPtr left, ParseUnaryPrimary());
    size_t chain = 0;
    while (true) {
      if (AcceptOperator("*")) {
        VR_RETURN_NOT_OK(ChargeChain(&chain, "multiplicative"));
        VR_RETURN_NOT_OK(ChargeNodes());
        VR_ASSIGN_OR_RETURN(ExprPtr right, ParseUnaryPrimary());
        left = MakeBinary(BinaryOp::kMul, std::move(left), std::move(right));
      } else if (AcceptOperator("/")) {
        VR_RETURN_NOT_OK(ChargeChain(&chain, "multiplicative"));
        VR_RETURN_NOT_OK(ChargeNodes());
        VR_ASSIGN_OR_RETURN(ExprPtr right, ParseUnaryPrimary());
        left = MakeBinary(BinaryOp::kDiv, std::move(left), std::move(right));
      } else {
        break;
      }
    }
    return left;
  }

  Result<ExprPtr> ParseUnaryPrimary() {
    if (AcceptOperator("-")) {
      DepthScope scope(tracker_, "unary-minus chain");
      VR_RETURN_NOT_OK(scope.status());
      // `-` directly before an integer token folds before the magnitude
      // check, so INT64_MIN (magnitude 2^63) parses.
      if (Peek().type == TokenType::kInteger) {
        VR_RETURN_NOT_OK(ChargeNodes());
        VR_ASSIGN_OR_RETURN(int64_t v, ParseNegatedInt64Token(Advance()));
        return MakeLiteral(Value::Int(v));
      }
      VR_ASSIGN_OR_RETURN(ExprPtr e, ParseUnaryPrimary());
      // Fold `-<numeric literal>` so negative constants round-trip
      // through the printer unchanged.
      if (e->kind == ExprKind::kLiteral) {
        const Value& v = static_cast<const LiteralExpr&>(*e).value;
        if (v.is_int()) {
          if (v.AsInt() == std::numeric_limits<int64_t>::min()) {
            return Status::InvalidArgument(
                "integer literal does not fit in int64 after negation "
                "near offset " + std::to_string(Peek().offset));
          }
          return MakeLiteral(Value::Int(-v.AsInt()));
        }
        if (v.is_double()) {
          return MakeLiteral(Value::Double(-v.AsDoubleExact()));
        }
      }
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNeg, std::move(e)));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    VR_RETURN_NOT_OK(ChargeNodes());
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString: {
        const Token& lit = Advance();
        // A literal lifted by TokenizeTemplate parses as its slot's $param.
        if (lit.param > 0) {
          return ExprPtr(
              std::make_unique<ParamExpr>(std::to_string(lit.param)));
        }
        VR_ASSIGN_OR_RETURN(Value v,
                            LiteralValue(lit.type, lit.text, lit.offset));
        return MakeLiteral(std::move(v));
      }
      case TokenType::kKeyword: {
        if (t.text == "NULL") {
          Advance();
          return MakeLiteral(Value::Null());
        }
        if (t.text == "TRUE") {
          Advance();
          return MakeLiteral(Value::Int(1));
        }
        if (t.text == "FALSE") {
          Advance();
          return MakeLiteral(Value::Int(0));
        }
        return Err<ExprPtr>("unexpected keyword in expression");
      }
      case TokenType::kOperator: {
        if (t.text == "$") {
          Advance();
          if (Peek().type != TokenType::kIdentifier) {
            return Err<ExprPtr>("expected parameter name after $");
          }
          return ExprPtr(std::make_unique<ParamExpr>(Advance().text));
        }
        if (t.text == "(") {
          if (PeekSelectAfterParen()) {
            Advance();
            VR_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
            VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
            return ExprPtr(
                std::make_unique<ScalarSubqueryExpr>(std::move(sub)));
          }
          Advance();
          VR_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
          return inner;
        }
        // Note: no bare-`*` production here. `*` is only meaningful as a
        // whole select item or a COUNT(*) argument (both handled at their
        // call sites); accepting it as a general primary let nonsense
        // like `(*) AS cnt` parse into statements whose canonical
        // rendering could not be reparsed (found by fuzz_sql_parser).
        return Err<ExprPtr>("unexpected operator in expression");
      }
      case TokenType::kIdentifier: {
        std::string first = Advance().text;
        // Function call?
        if (Peek().IsOperator("(")) {
          Advance();
          bool distinct = AcceptKeyword("DISTINCT");
          std::vector<ExprPtr> args;
          if (!Peek().IsOperator(")")) {
            if (Peek().IsOperator("*") && !distinct) {
              Advance();
              args.push_back(std::make_unique<StarExpr>());
            } else {
              while (true) {
                VR_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
                args.push_back(std::move(a));
                if (!AcceptOperator(",")) break;
              }
            }
          }
          VR_RETURN_NOT_OK(Expect(TokenType::kOperator, ")"));
          return MakeFuncCall(std::move(first), std::move(args), distinct);
        }
        // Qualified column?
        if (AcceptOperator(".")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Err<ExprPtr>("expected column name after '.'");
          }
          std::string col = Advance().text;
          return MakeColumnRef(std::move(first), std::move(col));
        }
        return MakeColumnRef("", std::move(first));
      }
      case TokenType::kEnd:
        return Err<ExprPtr>("unexpected end of input");
    }
    return Err<ExprPtr>("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  LimitTracker tracker_;
};

/// Parses a token stream and re-measures the finished tree.
Result<SelectStmtPtr> ParseTokens(std::vector<Token> tokens,
                                  const ResourceLimits& limits) {
  Parser parser(std::move(tokens), limits);
  VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt, parser.ParseStatement());
  // Re-measure the finished tree iteratively: the in-parse charges are
  // per-production approximations, this is the exact bound downstream
  // recursive walks (Clone, ToSql, DNF, executor eval) rely on.
  AstStats stats = ComputeAstStats(*stmt);
  if (stats.depth > limits.max_ast_depth) {
    return Status::ResourceExhausted(
        "parsed statement depth " + std::to_string(stats.depth) +
        " exceeds the limit (" + std::to_string(limits.max_ast_depth) + ")");
  }
  if (stats.nodes > limits.max_ast_nodes) {
    return Status::ResourceExhausted(
        "parsed statement has " + std::to_string(stats.nodes) +
        " nodes, exceeding the limit (" +
        std::to_string(limits.max_ast_nodes) + ")");
  }
  return stmt;
}

}  // namespace

Result<SelectStmtPtr> ParseSelect(const std::string& sql,
                                  const ResourceLimits& limits) {
  VR_FAULT_POINT(faults::kParse);
  VR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql, limits));
  return ParseTokens(std::move(tokens), limits);
}

Result<SelectStmtPtr> ParseSelectTemplate(const std::string& sql,
                                          const ResourceLimits& limits) {
  VR_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                      TokenizeTemplate(sql, limits));
  return ParseTokens(std::move(tokens), limits);
}

Result<SelectStmtPtr> ParseSelect(const std::string& sql) {
  return ParseSelect(sql, ResourceLimits::Defaults());
}

}  // namespace viewrewrite
