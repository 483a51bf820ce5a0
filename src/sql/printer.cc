#include "sql/printer.h"

#include <cctype>

namespace viewrewrite {

namespace {

void PrintExpr(const Expr& e, std::string& out);
void PrintSelect(const SelectStmt& s, std::string& out);

void PrintExpr(const Expr& e, std::string& out) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(e);
      lit.value.AppendTo(&out);
      return;
    }
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      out += c.FullName();
      return;
    }
    case ExprKind::kStar:
      out += "*";
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      out += "(";
      PrintExpr(*b.left, out);
      out += " ";
      out += BinaryOpName(b.op);
      out += " ";
      PrintExpr(*b.right, out);
      out += ")";
      return;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      out += (u.op == UnaryOp::kNot ? "(NOT " : "(-");
      PrintExpr(*u.operand, out);
      out += ")";
      return;
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(e);
      for (char c : f.name) {
        out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      out += "(";
      if (f.distinct) out += "DISTINCT ";
      for (size_t i = 0; i < f.args.size(); ++i) {
        if (i > 0) out += ", ";
        PrintExpr(*f.args[i], out);
      }
      out += ")";
      return;
    }
    case ExprKind::kScalarSubquery: {
      const auto& sq = static_cast<const ScalarSubqueryExpr&>(e);
      out += "(";
      PrintSelect(*sq.subquery, out);
      out += ")";
      return;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(e);
      PrintExpr(*in.lhs, out);
      out += (in.negated ? " NOT IN (" : " IN (");
      if (in.subquery) {
        PrintSelect(*in.subquery, out);
      } else {
        for (size_t i = 0; i < in.value_list.size(); ++i) {
          if (i > 0) out += ", ";
          PrintExpr(*in.value_list[i], out);
        }
      }
      out += ")";
      return;
    }
    case ExprKind::kExists: {
      const auto& ex = static_cast<const ExistsExpr&>(e);
      out += (ex.negated ? "NOT EXISTS (" : "EXISTS (");
      PrintSelect(*ex.subquery, out);
      out += ")";
      return;
    }
    case ExprKind::kQuantifiedCmp: {
      const auto& q = static_cast<const QuantifiedCmpExpr&>(e);
      PrintExpr(*q.lhs, out);
      out += " ";
      out += BinaryOpName(q.op);
      out += " ";
      out += (q.quantifier == Quantifier::kAny ? "ANY (" : "ALL (");
      PrintSelect(*q.subquery, out);
      out += ")";
      return;
    }
    case ExprKind::kParam: {
      const auto& p = static_cast<const ParamExpr&>(e);
      out += "$";
      out += p.name;
      return;
    }
  }
}

void PrintTableRef(const TableRef& r, std::string& out) {
  switch (r.kind) {
    case TableRefKind::kBase: {
      const auto& b = static_cast<const BaseTableRef&>(r);
      out += b.name;
      if (!b.alias.empty()) {
        out += " AS ";
        out += b.alias;
      }
      return;
    }
    case TableRefKind::kDerived: {
      const auto& d = static_cast<const DerivedTableRef&>(r);
      out += "(";
      PrintSelect(*d.subquery, out);
      out += ") AS ";
      out += d.alias;
      return;
    }
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(r);
      PrintTableRef(*j.left, out);
      switch (j.join_type) {
        case JoinType::kInner:
          out += " JOIN ";
          break;
        case JoinType::kLeft:
          out += " LEFT JOIN ";
          break;
        case JoinType::kNatural:
          out += " NATURAL JOIN ";
          break;
      }
      PrintTableRef(*j.right, out);
      if (j.condition) {
        out += " ON ";
        PrintExpr(*j.condition, out);
      }
      return;
    }
  }
}

void PrintSelect(const SelectStmt& s, std::string& out) {
  if (!s.with.empty()) {
    out += "WITH ";
    for (size_t i = 0; i < s.with.size(); ++i) {
      if (i > 0) out += ", ";
      out += s.with[i].name;
      out += " AS (";
      PrintSelect(*s.with[i].query, out);
      out += ")";
    }
    out += " ";
  }
  out += "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) out += ", ";
    if (s.items[i].is_star) {
      out += "*";
    } else {
      PrintExpr(*s.items[i].expr, out);
      if (!s.items[i].alias.empty()) {
        out += " AS ";
        out += s.items[i].alias;
      }
    }
  }
  if (!s.from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < s.from.size(); ++i) {
      if (i > 0) out += ", ";
      PrintTableRef(*s.from[i], out);
    }
  }
  if (s.where) {
    out += " WHERE ";
    PrintExpr(*s.where, out);
  }
  if (!s.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      PrintExpr(*s.group_by[i], out);
    }
  }
  if (s.having) {
    out += " HAVING ";
    PrintExpr(*s.having, out);
  }
  if (!s.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < s.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      PrintExpr(*s.order_by[i].expr, out);
      if (s.order_by[i].descending) out += " DESC";
    }
  }
  if (s.limit >= 0) {
    out += " LIMIT ";
    out += std::to_string(s.limit);
  }
}

}  // namespace

std::string ToSql(const Expr& expr) {
  std::string out;
  PrintExpr(expr, out);
  return out;
}

std::string ToSql(const TableRef& ref) {
  std::string out;
  PrintTableRef(ref, out);
  return out;
}

std::string ToSql(const SelectStmt& stmt) {
  std::string out;
  PrintSelect(stmt, out);
  return out;
}

std::string ToSql(const RewrittenQuery& rq) {
  std::string out;
  for (const auto& link : rq.chain) {
    out += link.var;
    out += " := (";
    PrintSelect(*link.query, out);
    out += "); ";
  }
  for (size_t i = 0; i < rq.combination.terms.size(); ++i) {
    const auto& t = rq.combination.terms[i];
    if (i > 0) out += (t.coeff >= 0 ? " + " : " - ");
    else if (t.coeff < 0) out += "- ";
    double mag = t.coeff >= 0 ? t.coeff : -t.coeff;
    if (mag != 1.0) {
      AppendDouble(&out, mag);
      out += " * ";
    }
    out += "(";
    PrintSelect(*t.query, out);
    out += ")";
  }
  return out;
}

}  // namespace viewrewrite
