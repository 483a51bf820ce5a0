#include "view/cell_eval.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace viewrewrite {
namespace {

ExprPtr ParsePredicate(const std::string& predicate) {
  auto stmt = ParseSelect("SELECT * FROM t WHERE " + predicate);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  return std::move((*stmt)->where);
}

/// One cell of a throwaway view: each attribute ("table.column" or a bare
/// "column") with its representative value, plus the bound $params.
class Cell {
 public:
  explicit Cell(std::vector<std::pair<std::string, Value>> attrs,
                ParamMap params = {})
      : view_("test", std::make_unique<SelectStmt>()),
        params_(std::move(params)) {
    for (auto& [name, value] : attrs) {
      ViewAttribute attr;
      const size_t dot = name.find('.');
      if (dot == std::string::npos) {
        attr.column = name;
      } else {
        attr.table = name.substr(0, dot);
        attr.column = name.substr(dot + 1);
      }
      view_.AddAttribute(attr);
      values_.push_back(std::move(value));
    }
  }

  Result<Value> Expr(const std::string& sql) {
    ExprPtr e = ParsePredicate(sql);
    CellScope scope(view_, params_);
    std::vector<size_t> dims;
    scope.Resolve(*e, &dims);
    for (size_t d = 0; d < values_.size(); ++d) scope.SetCell(d, &values_[d]);
    return EvalCellExpr(*e, scope);
  }

  Result<bool> Predicate(const std::string& sql) {
    ExprPtr e = ParsePredicate(sql);
    CellScope scope(view_, params_);
    std::vector<size_t> dims;
    scope.Resolve(*e, &dims);
    for (size_t d = 0; d < values_.size(); ++d) scope.SetCell(d, &values_[d]);
    return EvalCellPredicate(*e, scope);
  }

  const ViewDef& view() const { return view_; }

 private:
  ViewDef view_;
  ParamMap params_;
  std::vector<Value> values_;
};

TEST(CellEvalTest, ComparisonOnAttrValue) {
  Cell cell({{"t.a", Value::Int(10)}});
  auto r = cell.Predicate("t.a >= 8");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  r = cell.Predicate("a < 10");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(CellEvalTest, NullAttrMakesComparisonNotTrue) {
  Cell cell({{"a", Value::Null()}});
  auto r = cell.Predicate("a > 5");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(CellEvalTest, CoalesceSubstitutesNull) {
  Cell cell({{"cnt", Value::Null()}});
  auto r = cell.Predicate("COALESCE(cnt, 0) < 1");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(CellEvalTest, ThreeValuedAndOr) {
  Cell cell({{"a", Value::Null()}, {"b", Value::Int(1)}});
  // NULL-compare AND true -> not true.
  auto r = cell.Predicate("a > 5 AND b = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // NULL-compare OR true -> true.
  r = cell.Predicate("a > 5 OR b = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(CellEvalTest, IsNullTests) {
  Cell cell({{"a", Value::Null()}, {"b", Value::Int(2)}});
  EXPECT_TRUE(*cell.Predicate("a IS NULL"));
  EXPECT_TRUE(*cell.Predicate("b IS NOT NULL"));
  EXPECT_FALSE(*cell.Predicate("b IS NULL"));
}

TEST(CellEvalTest, ParamsResolve) {
  Cell cell({{"a", Value::Int(100)}}, {{"v0", Value::Double(55.5)}});
  EXPECT_TRUE(*cell.Predicate("a > $v0"));
  auto missing = cell.Predicate("a > $nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CellEvalTest, ArithmeticAndNot) {
  Cell cell({{"a", Value::Int(6)}});
  EXPECT_TRUE(*cell.Predicate("a * 2 - 4 = 8"));
  EXPECT_TRUE(*cell.Predicate("NOT a = 5"));
}

TEST(CellEvalTest, InListOnCells) {
  Cell cell({{"a", Value::String("f")}});
  EXPECT_TRUE(*cell.Predicate("a IN ('f', 'o')"));
  EXPECT_FALSE(*cell.Predicate("a NOT IN ('f', 'o')"));
}

TEST(CellEvalTest, IfposGates) {
  Cell cell({{"a", Value::Int(3)}, {"agg", Value::Int(9)}});
  auto v = cell.Expr("IFPOS(a > 1, agg) = 9");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(1));
  // Gate closed -> NULL -> comparison not true.
  EXPECT_FALSE(*cell.Predicate("IFPOS(a > 5, agg) = 9"));
}

TEST(CellEvalTest, UnknownAttributeErrors) {
  Cell cell({});
  auto r = cell.Predicate("zzz = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CellEvalTest, SubqueryInCellPredicateRejected) {
  Cell cell({});
  auto r = cell.Predicate("EXISTS (SELECT * FROM u)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(CellEvalTest, QualifiedFallbackToBareName) {
  Cell cell({{"price", Value::Int(7)}});
  EXPECT_TRUE(*cell.Predicate("o.price = 7"));
}

TEST(CellEvalTest, ResolveReportsDimensionsRead) {
  Cell cell({{"o.a", Value::Int(1)}, {"o2.a", Value::Int(2)},
             {"o.b", Value::Int(3)}});
  const ParamMap params;
  CellScope scope(cell.view(), params);
  ExprPtr e = ParsePredicate("o2.a + o.b > o2.a AND $p = 1");
  std::vector<size_t> dims;
  EXPECT_TRUE(scope.Resolve(*e, &dims));
  EXPECT_EQ(dims, (std::vector<size_t>{1, 2}));
  // A qualifier matching no attribute leaves the ref unresolved.
  ExprPtr unknown = ParsePredicate("o.a = x.b");
  dims.clear();
  EXPECT_FALSE(scope.Resolve(*unknown, &dims));
  EXPECT_EQ(dims, (std::vector<size_t>{0}));
}

}  // namespace
}  // namespace viewrewrite
