#include "sql/printer.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace viewrewrite {
namespace {

/// Round-trip: parse -> print -> parse -> print must be a fixed point.
void ExpectRoundTrip(const std::string& sql) {
  auto first = ParseSelect(sql);
  ASSERT_TRUE(first.ok()) << sql << " -> " << first.status();
  std::string printed = ToSql(**first);
  auto second = ParseSelect(printed);
  ASSERT_TRUE(second.ok()) << printed << " -> " << second.status();
  EXPECT_EQ(printed, ToSql(**second)) << "not a fixed point: " << sql;
}

TEST(PrinterTest, DoublesRoundTripExactly) {
  // More significant digits than a default ostream keeps: the printed
  // literal must read back as the same double.
  auto first = ParseSelect("SELECT a FROM t WHERE a >= 0.1234567891");
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string printed = ToSql(**first);
  EXPECT_NE(printed.find("0.1234567891"), std::string::npos) << printed;
  auto second = ParseSelect(printed);
  ASSERT_TRUE(second.ok()) << printed << " -> " << second.status();
  const auto& where = static_cast<const BinaryExpr&>(*(*second)->where);
  const auto& lit = static_cast<const LiteralExpr&>(*where.right);
  EXPECT_EQ(lit.value.AsDoubleExact(), 0.1234567891);
  EXPECT_EQ(printed, ToSql(**second));
  // Six digits still print as before when they are exact.
  EXPECT_EQ(Value::Double(72.0).ToString(), "72");
  EXPECT_EQ(Value::Double(1e-05).ToString(), "1e-05");
  EXPECT_EQ(Value::Double(100000.0).ToString(), "100000");
  EXPECT_EQ(Value::Double(1234567.0).ToString(), "1234567");
}

TEST(PrinterTest, CanonicalizesCase) {
  auto stmt = ParseSelect("select Count(*) from Orders o");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(ToSql(**stmt), "SELECT COUNT(*) FROM orders AS o");
}

TEST(PrinterTest, RoundTripSimple) {
  ExpectRoundTrip("SELECT a, b FROM t WHERE a > 3 AND b = 'x'");
}

TEST(PrinterTest, RoundTripJoins) {
  ExpectRoundTrip(
      "SELECT COUNT(*) FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.w");
}

TEST(PrinterTest, RoundTripDerivedTable) {
  ExpectRoundTrip(
      "SELECT COUNT(*) FROM (SELECT o_custkey, COUNT(*) AS cnt FROM orders "
      "GROUP BY o_custkey HAVING COUNT(*) > 2) AS d WHERE d.cnt < 5");
}

TEST(PrinterTest, RoundTripSubqueries) {
  ExpectRoundTrip(
      "SELECT COUNT(*) FROM t WHERE a IN (SELECT b FROM u) AND "
      "EXISTS (SELECT * FROM v) AND c > ANY (SELECT d FROM w)");
}

TEST(PrinterTest, RoundTripWith) {
  ExpectRoundTrip(
      "WITH x AS (SELECT a FROM t) SELECT COUNT(*) FROM x WHERE a = 1");
}

TEST(PrinterTest, RoundTripParams) {
  ExpectRoundTrip("SELECT COUNT(*) FROM t WHERE a > $v1 OR b < 2");
}

TEST(PrinterTest, StructurallyEqualQueriesPrintIdentically) {
  auto a = ParseSelect("SELECT COUNT(*) FROM t WHERE x=1 AND y=2");
  auto b = ParseSelect("select count ( * ) from t where x = 1 and y = 2");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(ToSql(**a), ToSql(**b));
}

TEST(PrinterTest, RewrittenQueryRendering) {
  auto q1 = ParseSelect("SELECT COUNT(*) FROM t WHERE a = 1");
  auto q2 = ParseSelect("SELECT COUNT(*) FROM t WHERE b = 2");
  ASSERT_TRUE(q1.ok() && q2.ok());
  RewrittenQuery rq;
  QueryCombination::Term t1;
  t1.coeff = 1.0;
  t1.query = std::move(q1).value();
  QueryCombination::Term t2;
  t2.coeff = -1.0;
  t2.query = std::move(q2).value();
  rq.combination.terms.push_back(std::move(t1));
  rq.combination.terms.push_back(std::move(t2));
  std::string s = ToSql(rq);
  EXPECT_NE(s.find(" - "), std::string::npos);
  EXPECT_NE(s.find("WHERE (a = 1)"), std::string::npos);
}

}  // namespace
}  // namespace viewrewrite
