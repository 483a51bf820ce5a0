#ifndef VIEWREWRITE_SQL_VALUE_H_
#define VIEWREWRITE_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"

namespace viewrewrite {

/// Column data types supported by the engine.
enum class DataType {
  kNull,
  kInt,
  kDouble,
  kString,
};

const char* DataTypeName(DataType type);

/// A single SQL scalar: NULL, 64-bit integer, double, or string.
///
/// Values use SQL semantics for comparisons against NULL (unknown), which
/// callers express via the tri-state helpers below. `operator==` /
/// `operator<` implement a *total* order (NULL first, then numerics by
/// value, then strings) so Values can key hash maps and be sorted;
/// SQL-comparison helpers are separate.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.repr_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.repr_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.repr_ = std::move(v);
    return out;
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_numeric() const { return is_int() || is_double(); }

  DataType type() const;

  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsDoubleExact() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric value as double (int widened). Requires is_numeric().
  double ToDouble() const;

  /// Renders the value as a SQL literal ("NULL", 42, 1.5, 'abc').
  /// Doubles print like `printf("%g")` when six significant digits
  /// round-trip, and otherwise with the fewest digits that do, so two
  /// distinct doubles never render alike.
  std::string ToString() const;

  /// Appends ToString() to `out` without building a temporary.
  void AppendTo(std::string* out) const;

  /// Total order for container use; NULL < numbers < strings.
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// SQL three-valued comparison. Returns error on type mismatch
  /// (string vs number). Result is NULL if either side is NULL.
  /// cmp < 0, == 0, > 0 like strcmp, wrapped in a nullable.
  struct TriCompare {
    bool is_null = false;
    int cmp = 0;
  };
  Result<TriCompare> CompareSql(const Value& other) const;

  /// Hash consistent with the total order equality.
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> repr_;
};

/// Appends `v` in Value::ToString's double format.
void AppendDouble(std::string* out, double v);

/// Hash functor for containers keyed on Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hash functor for vector<Value> keys (group-by keys, synopsis cells).
struct ValueVectorHash {
  size_t operator()(const std::vector<Value>& vs) const {
    size_t h = 1469598103934665603ull;
    for (const Value& v : vs) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_VALUE_H_
