// Differential test of the compiled cell program behind Synopsis answers.
// Seeded random small views (2-4 categorical or bucketed dimensions with
// random non-integral cell values) are answered through AnswerScalar and
// AnswerGroupedData, and each answer is checked against a brute-force
// oracle that evaluates the whole WHERE at every cell of the full grid in
// flat-index order. Sums must match bit for bit; when both sides fail,
// the status codes must match.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aggregate/aggregate_planner.h"
#include "common/random.h"
#include "sql/parser.h"
#include "view/cell_eval.h"
#include "view/synopsis.h"

namespace viewrewrite {
namespace {

constexpr int kCases = 400;

enum class DimKind { kBuckets, kIntCategories, kStringCategories };

/// Which evaluation error a case may raise. One kind per case keeps the
/// expected status code independent of evaluation order.
enum class Fault { kNone, kTypeMismatch, kDivisionByZero, kUnboundParam };

struct Dim {
  DimKind kind;
  std::string name;          // qualified, e.g. "u.c0"
  std::vector<Value> reps;   // per cell index; the last is the NULL cell
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One random view, its synopsis and a random WHERE generator over it.
class Case {
 public:
  explicit Case(uint64_t seed) : rng_(seed) {
    const int n = static_cast<int>(rng_.UniformInt(2, 4));
    view_ = std::make_unique<ViewDef>("v", std::make_unique<SelectStmt>());
    for (int i = 0; i < n; ++i) AddDim(i);
    fault_ = PickFault();
    params_["p"] = rng_.UniformInt(0, 1) == 0
                       ? Value::Int(rng_.UniformInt(0, 12))
                       : Value::Double(rng_.UniformInt(0, 24) / 2.0);

    SynopsisParts parts;
    for (const Dim& d : dims_) {
      parts.dim_sizes.push_back(static_cast<int64_t>(d.reps.size()));
      parts.total_cells *= d.reps.size();
    }
    for (const std::string& key : {std::string("count"), SumKey()}) {
      std::vector<double> cells(parts.total_cells);
      for (double& c : cells) c = rng_.UniformDouble(-3.0, 40.0);
      parts.noisy[key] = cells;
      parts.exact[key] = std::move(cells);
    }
    auto synopsis = Synopsis::FromParts(view_.get(), std::move(parts));
    EXPECT_TRUE(synopsis.ok()) << synopsis.status();
    synopsis_ = std::make_unique<Synopsis>(std::move(synopsis).value());
  }

  const Synopsis& synopsis() const { return *synopsis_; }
  const ViewDef& view() const { return *view_; }
  const ParamMap& params() const { return params_; }
  const std::vector<Dim>& dims() const { return dims_; }
  Random& rng() { return rng_; }

  static std::string SumKey() { return "sum:t.m"; }

  /// A WHERE of 0-5 conjuncts; at most one of them raises `fault_`.
  std::string Where() {
    const int conjuncts = static_cast<int>(rng_.UniformInt(0, 5));
    std::vector<std::string> parts;
    for (int i = 0; i < conjuncts; ++i) parts.push_back(Conjunct());
    if (fault_ != Fault::kNone && rng_.UniformInt(0, 3) != 0) {
      parts.insert(parts.begin() + rng_.UniformInt(0, conjuncts), Faulty());
    }
    std::string out;
    for (const std::string& p : parts) {
      out += (out.empty() ? "" : " AND ") + p;
    }
    return out.empty() ? "" : " WHERE " + out;
  }

 private:
  void AddDim(int i) {
    Dim d;
    d.kind = static_cast<DimKind>(rng_.UniformInt(0, 2));
    // Aliases may repeat a column name across tables, as in a self-join
    // view; a (table, column) pair is unique.
    ViewAttribute attr;
    attr.table = rng_.UniformInt(0, 1) == 0 ? "t" : "u";
    attr.column = "c" + std::to_string(rng_.UniformInt(0, 2) == 0 ? 0 : i);
    if (view_->AttributeIndex(attr.table, attr.column) >= 0) {
      attr.column = "c" + std::to_string(i);
    }
    d.name = attr.QualifiedName();
    switch (d.kind) {
      case DimKind::kBuckets: {
        const int64_t lo = rng_.UniformInt(0, 6);
        const int64_t buckets = rng_.UniformInt(1, 4);
        const int64_t width = rng_.UniformInt(1, 4);
        attr.domain = ColumnDomain::IntBuckets(lo, lo + buckets * width - 1,
                                               buckets);
        for (int64_t c = 0; c < buckets; ++c) {
          auto [b_lo, b_hi] = attr.domain.BucketBounds(c);
          d.reps.push_back(Value::Double(
              (static_cast<double>(b_lo) + static_cast<double>(b_hi) + 1.0) /
              2.0));
        }
        break;
      }
      case DimKind::kIntCategories: {
        std::vector<Value> values;
        for (int64_t v = 0; v < 12; v += rng_.UniformInt(1, 5)) {
          values.push_back(Value::Int(v));
        }
        attr.domain = ColumnDomain::Categorical(values);
        d.reps = values;
        break;
      }
      case DimKind::kStringCategories: {
        std::vector<Value> values;
        for (const char* s : {"a", "b", "c", "d"}) {
          if (values.empty() || rng_.UniformInt(0, 2) != 0) {
            values.push_back(Value::String(s));
          }
        }
        attr.domain = ColumnDomain::Categorical(values);
        d.reps = values;
        break;
      }
    }
    d.reps.push_back(Value::Null());  // the NULL/other cell
    view_->AddAttribute(attr);
    dims_.push_back(std::move(d));
  }

  Fault PickFault() {
    const int64_t r = rng_.UniformInt(0, 9);
    if (r < 6) return Fault::kNone;
    if (r == 6) return Fault::kDivisionByZero;
    if (r == 7) return Fault::kUnboundParam;
    // Type errors need a string dimension.
    for (const Dim& d : dims_) {
      if (d.kind == DimKind::kStringCategories) return Fault::kTypeMismatch;
    }
    return Fault::kNone;
  }

  const Dim& AnyDim() {
    return dims_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(dims_.size()) - 1))];
  }
  const Dim* DimOf(bool numeric, const Dim* other = nullptr) {
    std::vector<const Dim*> pool;
    for (const Dim& d : dims_) {
      if ((d.kind != DimKind::kStringCategories) == numeric && &d != other) {
        pool.push_back(&d);
      }
    }
    if (pool.empty()) return nullptr;
    return pool[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  }

  std::string Op() {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return kOps[rng_.UniformInt(0, 5)];
  }
  std::string Num() { return std::to_string(rng_.UniformInt(-1, 13)); }
  std::string Str() {
    static const char* kStrs[] = {"'a'", "'b'", "'c'", "'d'", "'zz'"};
    return kStrs[rng_.UniformInt(0, 4)];
  }
  /// A literal equal to some value cell of `d`, so `x - Rep(d)` hits zero.
  std::string Rep(const Dim& d) {
    const Value& v = d.reps[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(d.reps.size()) - 2))];
    return v.ToString();
  }

  std::string NumAtom(const Dim& d) {
    switch (rng_.UniformInt(0, 5)) {
      case 0: return d.name + " + " + Num();
      case 1: return d.name + " * 2";
      case 2: return "-" + d.name;
      case 3: return "COALESCE(" + d.name + ", " + Num() + ")";
      case 4: return "ABS(" + d.name + " - " + Num() + ")";
      default: return d.name;
    }
  }
  std::string StrAtom(const Dim& d) {
    return rng_.UniformInt(0, 2) == 0 ? "COALESCE(" + d.name + ", 'zz')"
                                      : d.name;
  }

  std::string NullTest(const Dim& d) {
    return d.name + (rng_.UniformInt(0, 1) ? " IS NULL" : " IS NOT NULL");
  }

  std::string SingleDim(const Dim& d) {
    if (d.kind == DimKind::kStringCategories) {
      switch (rng_.UniformInt(0, 4)) {
        case 0: return d.name + " IN (" + Str() + ", " + Str() + ")";
        case 1: return d.name + " NOT IN (" + Str() + ")";
        case 2: return NullTest(d);
        case 3: return "NOT (" + StrAtom(d) + " " + Op() + " " + Str() + ")";
        default: return StrAtom(d) + " " + Op() + " " + Str();
      }
    }
    switch (rng_.UniformInt(0, 6)) {
      case 0:
        return d.name + " IN (" + Num() + ", " + Rep(d) + ", " + Num() + ")";
      case 1: return d.name + " NOT IN (" + Rep(d) + ", " + Num() + ")";
      case 2: return NullTest(d);
      case 3: return "NOT (" + NumAtom(d) + " " + Op() + " " + Num() + ")";
      case 4:
        return "(" + NumAtom(d) + " " + Op() + " " + Num() + " OR " +
               NumAtom(d) + " " + Op() + " " + Num() + ")";
      case 5: return "IFPOS(" + d.name + " > " + Num() + ", " + d.name + ") " +
                     Op() + " $p";
      default: return NumAtom(d) + " " + Op() + " " + Num();
    }
  }

  std::string CrossDim() {
    const Dim* a = DimOf(true);
    const Dim* b = a == nullptr ? nullptr : DimOf(true, a);
    if (b != nullptr && rng_.UniformInt(0, 3) != 0) {
      switch (rng_.UniformInt(0, 6)) {
        case 0: return NumAtom(*a) + " " + Op() + " " + NumAtom(*b);
        case 1: return a->name + " + " + b->name + " " + Op() + " " + Num();
        case 2:
          return "(" + NumAtom(*a) + " " + Op() + " " + Num() + " OR " +
                 NumAtom(*b) + " " + Op() + " " + Num() + ")";
        case 3: return "NOT (" + a->name + " = " + b->name + ")";
        case 4: return "IFPOS(" + a->name + " > " + Num() + ", " + b->name +
                       ") " + Op() + " " + Num();
        case 5: return "COALESCE(" + a->name + ", " + b->name + ") " + Op() +
                       " " + Num();
        default:
          return a->name + " * " + b->name + " - $p " + Op() + " " + Num();
      }
    }
    // Any two (or three) dimensions through OR, whatever their types.
    const Dim& x = AnyDim();
    const Dim& y = AnyDim();
    std::string out = "(" + SingleDim(x) + " OR " + SingleDim(y);
    if (rng_.UniformInt(0, 2) == 0) out += " OR " + SingleDim(AnyDim());
    return out + ")";
  }

  std::string Constant() {
    switch (rng_.UniformInt(0, 3)) {
      case 0: return "$p " + Op() + " " + Num();
      case 1: return "1 = 1";
      case 2: return "$p + 1 > " + Num();
      default: return "NOT ($p = " + Num() + ")";
    }
  }

  std::string Conjunct() {
    const int64_t r = rng_.UniformInt(0, 9);
    if (r < 4) return SingleDim(AnyDim());
    if (r < 9) return CrossDim();
    return Constant();
  }

  /// A conjunct that fails evaluation at some cells with fault_'s code.
  std::string Faulty() {
    switch (fault_) {
      case Fault::kTypeMismatch: {
        // String against number: a comparison, IN item or arithmetic.
        const Dim* s = DimOf(false);
        const Dim* n = DimOf(true);
        switch (rng_.UniformInt(0, 3)) {
          case 0: return s->name + " " + Op() + " " + Num();
          case 1: return s->name + " IN (" + Str() + ", " + Num() + ")";
          case 2:
            if (n != nullptr) return "(" + s->name + " = " + n->name + ")";
            return s->name + " + 1 > 2";
          default: return s->name + " + 1 > 2";
        }
      }
      case Fault::kDivisionByZero: {
        const Dim* a = DimOf(true);
        if (a == nullptr) return "1 / ($p - $p) > 0";
        const Dim* b = DimOf(true, a);
        if (b != nullptr && rng_.UniformInt(0, 1) == 0) {
          return a->name + " / (" + b->name + " - " + Rep(*b) + ") " + Op() +
                 " " + Num();
        }
        return "1 / (" + a->name + " - " + Rep(*a) + ") > 0";
      }
      case Fault::kUnboundParam:
        return rng_.UniformInt(0, 1) == 0 ? AnyDim().name + " = $q"
                                          : "$q > 1";
      case Fault::kNone:
        break;
    }
    return "1 = 1";
  }

  Random rng_;
  std::unique_ptr<ViewDef> view_;
  std::vector<Dim> dims_;
  Fault fault_ = Fault::kNone;
  ParamMap params_;
  std::unique_ptr<Synopsis> synopsis_;
};

/// Brute force: evaluates the whole WHERE at every cell of the full grid
/// in flat-index order and adds `array` at each cell where it is TRUE,
/// into the accumulator `group_of` picks (-1 skips the cell).
template <typename GroupOf>
Status OracleSums(const Case& c, const Expr* where,
                  const std::vector<double>& array, GroupOf group_of,
                  std::vector<double>* sums) {
  CellScope scope(c.view(), c.params());
  std::vector<size_t> dims;
  if (where != nullptr) scope.Resolve(*where, &dims);
  const std::vector<Dim>& grid = c.dims();
  std::vector<size_t> cell(grid.size(), 0);
  for (size_t flat = 0; flat < array.size(); ++flat) {
    // Row-major decode, the last dimension fastest.
    size_t rest = flat;
    for (size_t d = grid.size(); d-- > 0;) {
      cell[d] = rest % grid[d].reps.size();
      rest /= grid[d].reps.size();
      scope.SetCell(d, &grid[d].reps[cell[d]]);
    }
    bool pass = true;
    if (where != nullptr) {
      VR_ASSIGN_OR_RETURN(pass, EvalCellPredicate(*where, scope));
    }
    const int g = group_of(cell);
    if (pass && g >= 0) (*sums)[static_cast<size_t>(g)] += array[flat];
  }
  return Status::OK();
}

/// The status the answer path must return: the first error in its
/// evaluation order, taken without truth tables. Constant conjuncts come
/// first (a FALSE one ends the query), then every dimension's
/// single-dimension conjuncts at each of its cells, then the remaining
/// conjuncts in order at each cell of the grid in flat-index order whose
/// indices all passed, stopping at the first that is not TRUE.
Status ReferenceOrderStatus(const Case& c, const Expr* where) {
  CellScope scope(c.view(), c.params());
  const std::vector<Dim>& grid = c.dims();
  std::vector<const Expr*> constant, multi;
  std::vector<std::vector<const Expr*>> single(grid.size());
  for (const Expr* e : CollectConjuncts(where)) {
    std::vector<size_t> dims;
    scope.Resolve(*e, &dims);
    if (dims.empty()) {
      constant.push_back(e);
    } else if (dims.size() == 1) {
      single[dims[0]].push_back(e);
    } else {
      multi.push_back(e);
    }
  }
  for (const Expr* e : constant) {
    VR_ASSIGN_OR_RETURN(bool pass, EvalCellPredicate(*e, scope));
    if (!pass) return Status::OK();
  }
  std::vector<std::vector<bool>> allowed(grid.size());
  for (size_t d = 0; d < grid.size(); ++d) {
    for (const Value& rep : grid[d].reps) {
      scope.SetCell(d, &rep);
      bool pass = true;
      for (size_t i = 0; i < single[d].size() && pass; ++i) {
        VR_ASSIGN_OR_RETURN(pass, EvalCellPredicate(*single[d][i], scope));
      }
      allowed[d].push_back(pass);
    }
  }
  std::vector<size_t> cell(grid.size(), 0);
  while (true) {
    bool pass = true;
    for (size_t d = 0; d < grid.size(); ++d) {
      scope.SetCell(d, &grid[d].reps[cell[d]]);
      pass = pass && allowed[d][cell[d]];
    }
    for (size_t i = 0; i < multi.size() && pass; ++i) {
      VR_ASSIGN_OR_RETURN(pass, EvalCellPredicate(*multi[i], scope));
    }
    size_t d = grid.size();
    while (d > 0 && ++cell[d - 1] == grid[d - 1].reps.size()) cell[--d] = 0;
    if (d == 0) return Status::OK();
  }
}

struct Tally {
  int both_ok = 0;
  int both_failed = 0;
};

/// Compares one answer with its oracle. The program evaluates a subset
/// of the (conjunct, cell) pairs the oracle does, so it may succeed where
/// the oracle fails, never the reverse.
template <typename T>
void Compare(const Result<T>& got, const Status& oracle,
             const std::string& context, Tally* tally,
             const std::function<void(const T&)>& check_values) {
  if (!got.ok()) {
    EXPECT_FALSE(oracle.ok()) << context << ": program failed with "
                              << got.status() << " but the oracle succeeded";
    if (!oracle.ok()) {
      EXPECT_EQ(got.status().code(), oracle.code())
          << context << ": " << got.status() << " vs " << oracle;
      ++tally->both_failed;
    }
    return;
  }
  if (!oracle.ok()) return;
  ++tally->both_ok;
  check_values(*got);
}

TEST(CellProgramTest, ScalarAnswersMatchBruteForceBitForBit) {
  Tally tally;
  for (int seed = 0; seed < kCases; ++seed) {
    Case c(static_cast<uint64_t>(seed));
    const std::string where = c.Where();
    for (const std::string item : {"COUNT(*)", "SUM(t.m)"}) {
      const std::string sql = "SELECT " + item + " FROM t" + where;
      auto stmt = ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
      const std::string key = item == "COUNT(*)" ? "count" : Case::SumKey();
      std::vector<double> sums(1, 0.0);
      Status oracle = OracleSums(
          c, (*stmt)->where.get(), c.synopsis().ToParts().noisy.at(key),
          [](const std::vector<size_t>&) { return 0; }, &sums);
      Result<double> got = c.synopsis().AnswerScalar(**stmt, c.params());
      const std::string context = "seed " + std::to_string(seed) + ": " + sql;
      const Status reference = ReferenceOrderStatus(c, (*stmt)->where.get());
      EXPECT_EQ(got.status().code(), reference.code())
          << context << ": " << got.status() << " vs " << reference;
      Compare<double>(got, oracle, context, &tally, [&](const double& v) {
        EXPECT_TRUE(SameBits(v, sums[0]))
            << context << " gave " << v << ", brute force " << sums[0];
      });
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(tally.both_ok, kCases);
  EXPECT_GT(tally.both_failed, kCases / 20);
}

TEST(CellProgramTest, GroupedAnswersMatchBruteForceBitForBit) {
  Tally tally;
  for (int seed = 0; seed < kCases; ++seed) {
    Case c(static_cast<uint64_t>(1000 + seed));
    const std::string where = c.Where();
    // One or two GROUP BY dimensions, in random order.
    const std::vector<Dim>& dims = c.dims();
    std::vector<size_t> group = {static_cast<size_t>(c.rng().UniformInt(
        0, static_cast<int64_t>(dims.size()) - 1))};
    const size_t second = static_cast<size_t>(
        c.rng().UniformInt(0, static_cast<int64_t>(dims.size()) - 1));
    if (second != group[0] && c.rng().UniformInt(0, 1) == 0) {
      group.push_back(second);
    }
    std::string keys;
    for (size_t g : group) keys += (keys.empty() ? "" : ", ") + dims[g].name;
    const std::string sql = "SELECT " + keys +
                            ", COUNT(*), SUM(t.m), AVG(t.m) FROM t" + where +
                            " GROUP BY " + keys;
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();

    // Groups are the value cells of the GROUP BY dimensions (no NULL
    // cell), first GROUP BY column slowest.
    auto group_of = [&](const std::vector<size_t>& cell) {
      int g = 0;
      for (size_t d : group) {
        const size_t values = dims[d].reps.size() - 1;
        if (cell[d] == values) return -1;
        g = g * static_cast<int>(values) + static_cast<int>(cell[d]);
      }
      return g;
    };
    size_t groups = 1;
    for (size_t d : group) groups *= dims[d].reps.size() - 1;
    const SynopsisParts parts = c.synopsis().ToParts();
    std::vector<double> counts(groups, 0.0), sums(groups, 0.0);
    Status oracle = OracleSums(c, (*stmt)->where.get(),
                               parts.noisy.at("count"), group_of, &counts);
    if (oracle.ok()) {
      oracle = OracleSums(c, (*stmt)->where.get(),
                          parts.noisy.at(Case::SumKey()), group_of, &sums);
    }
    auto got = c.synopsis().AnswerGroupedData(**stmt, c.params());
    const std::string context = "seed " + std::to_string(seed) + ": " + sql;
    Compare<aggregate::GroupedData>(
        got, oracle, context, &tally,
        [&](const aggregate::GroupedData& data) {
          ASSERT_EQ(data.rows.size(), groups) << context;
          for (size_t g = 0; g < groups; ++g) {
            const aggregate::GroupedRow& row = data.rows[g];
            ASSERT_EQ(row.values.size(), group.size() + 3) << context;
            size_t rest = g;
            for (size_t k = group.size(); k-- > 0;) {
              const size_t values = dims[group[k]].reps.size() - 1;
              EXPECT_EQ(row.values[k], dims[group[k]].reps[rest % values])
                  << context << " group " << g;
              rest /= values;
            }
            const double avg =
                aggregate::EvaluateDerived(aggregate::Derivation::kAvg,
                                           counts[g], sums[g], 0);
            EXPECT_TRUE(SameBits(row.noisy_count, counts[g]))
                << context << " group " << g;
            EXPECT_TRUE(SameBits(row.values[group.size()].ToDouble(),
                                 counts[g]))
                << context << " group " << g;
            EXPECT_TRUE(SameBits(row.values[group.size() + 1].ToDouble(),
                                 sums[g]))
                << context << " group " << g;
            EXPECT_TRUE(SameBits(row.values[group.size() + 2].ToDouble(), avg))
                << context << " group " << g;
          }
        });
  }
  EXPECT_GT(tally.both_ok, kCases / 2);
  EXPECT_GT(tally.both_failed, kCases / 40);
}

}  // namespace
}  // namespace viewrewrite
