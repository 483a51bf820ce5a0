#include "sql/value.h"

#include <charconv>
#include <cmath>
#include <functional>

namespace viewrewrite {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

DataType Value::type() const {
  if (is_null()) return DataType::kNull;
  if (is_int()) return DataType::kInt;
  if (is_double()) return DataType::kDouble;
  return DataType::kString;
}

double Value::ToDouble() const {
  if (is_int()) return static_cast<double>(AsInt());
  return AsDoubleExact();
}

void AppendDouble(std::string* out, double v) {
  // `%g` (what a default ostream prints) keeps six significant digits,
  // which collapses distinct constants such as 71.999999 and 72.000001.
  // Keep that rendering whenever it reads back as `v`; otherwise widen
  // the precision until it does (at most 17 digits for an IEEE double).
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, precision);
    double back = 0;
    const std::from_chars_result parsed = std::from_chars(buf, r.ptr, back);
    if (!std::isfinite(v) || precision == 17 ||
        (parsed.ec == std::errc() && back == v)) {
      out->append(buf, r.ptr);
      return;
    }
  }
}

void Value::AppendTo(std::string* out) const {
  if (is_null()) {
    out->append("NULL");
  } else if (is_int()) {
    char buf[24];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), AsInt());
    out->append(buf, r.ptr);
  } else if (is_double()) {
    AppendDouble(out, AsDoubleExact());
  } else {
    out->push_back('\'');
    for (char c : AsString()) {
      if (c == '\'') out->push_back('\'');
      out->push_back(c);
    }
    out->push_back('\'');
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

bool Value::operator==(const Value& other) const {
  if (type() != other.type()) {
    // Allow int/double cross-type numeric equality for the total order so
    // that group keys 1 and 1.0 coincide, matching SQL grouping semantics.
    if (is_numeric() && other.is_numeric()) {
      return ToDouble() == other.ToDouble();
    }
    return false;
  }
  return repr_ == other.repr_;
}

bool Value::operator<(const Value& other) const {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  int ra = rank(*this);
  int rb = rank(other);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // both NULL
  if (ra == 1) return ToDouble() < other.ToDouble();
  return AsString() < other.AsString();
}

Result<Value::TriCompare> Value::CompareSql(const Value& other) const {
  TriCompare out;
  if (is_null() || other.is_null()) {
    out.is_null = true;
    return out;
  }
  if (is_numeric() && other.is_numeric()) {
    double a = ToDouble();
    double b = other.ToDouble();
    out.cmp = (a < b) ? -1 : (a > b ? 1 : 0);
    return out;
  }
  if (is_string() && other.is_string()) {
    int c = AsString().compare(other.AsString());
    out.cmp = (c < 0) ? -1 : (c > 0 ? 1 : 0);
    return out;
  }
  return Status::TypeMismatch("cannot compare " +
                              std::string(DataTypeName(type())) + " with " +
                              std::string(DataTypeName(other.type())));
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ull;
  if (is_numeric()) {
    double d = ToDouble();
    if (d == 0.0) d = 0.0;  // normalize -0.0
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(AsString());
}

}  // namespace viewrewrite
