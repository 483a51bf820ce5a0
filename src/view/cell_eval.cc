#include "view/cell_eval.h"

#include <algorithm>
#include <cmath>

namespace viewrewrite {

namespace {

enum class Tri { kFalse, kTrue, kNull };

Tri ToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (v.is_numeric()) return v.ToDouble() != 0 ? Tri::kTrue : Tri::kFalse;
  return v.AsString().empty() ? Tri::kFalse : Tri::kTrue;
}

Value FromTri(Tri t) {
  switch (t) {
    case Tri::kTrue: return Value::Int(1);
    case Tri::kFalse: return Value::Int(0);
    case Tri::kNull: return Value::Null();
  }
  return Value::Null();
}

/// Calls `fn` on every column ref and $param of `e` that cell evaluation
/// can reach; the refs are the ones CollectColumnRefsShallow collects.
template <typename Fn>
void VisitLeaves(const Expr* e, Fn& fn) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kParam:
      fn(*e);
      return;
    case ExprKind::kBinary: {
      const auto* b = static_cast<const BinaryExpr*>(e);
      VisitLeaves(b->left.get(), fn);
      VisitLeaves(b->right.get(), fn);
      return;
    }
    case ExprKind::kUnary:
      VisitLeaves(static_cast<const UnaryExpr*>(e)->operand.get(), fn);
      return;
    case ExprKind::kFuncCall:
      for (const auto& a : static_cast<const FuncCallExpr*>(e)->args) {
        VisitLeaves(a.get(), fn);
      }
      return;
    case ExprKind::kIn: {
      const auto* in = static_cast<const InExpr*>(e);
      VisitLeaves(in->lhs.get(), fn);
      for (const auto& v : in->value_list) VisitLeaves(v.get(), fn);
      return;
    }
    case ExprKind::kQuantifiedCmp:
      VisitLeaves(static_cast<const QuantifiedCmpExpr*>(e)->lhs.get(), fn);
      return;
    default:
      return;  // literals, stars, nested subqueries
  }
}

}  // namespace

int ParamLayout::Slot(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

size_t ParamLayout::Add(std::string_view name) {
  const int slot = Slot(name);
  if (slot >= 0) return static_cast<size_t>(slot);
  names_.emplace_back(name);
  return names_.size() - 1;
}

std::vector<const Value*> BindByName(const ParamLayout& layout,
                                     const ParamMap& params) {
  std::vector<const Value*> values(layout.size(), nullptr);
  if (params.empty()) return values;
  for (size_t slot = 0; slot < layout.size(); ++slot) {
    auto it = params.find(layout.name(slot));
    if (it != params.end()) values[slot] = &it->second;
  }
  return values;
}

bool CellBindings::Resolve(const Expr& e, ParamLayout* layout,
                           std::vector<size_t>* dims) {
  const size_t first = dims->size();
  bool all_resolved = true;
  auto bind = [&](const Expr& leaf) {
    if (leaf.kind == ExprKind::kParam) {
      params_.emplace_back(
          &leaf, layout->Add(static_cast<const ParamExpr&>(leaf).name));
      return;
    }
    const auto& c = static_cast<const ColumnRefExpr&>(leaf);
    const int d = view_->AttributeIndex(c.table, c.column);
    refs_.emplace_back(&leaf, d);
    if (d < 0) {
      all_resolved = false;
    } else if (std::find(dims->begin() + first, dims->end(),
                         static_cast<size_t>(d)) == dims->end()) {
      dims->push_back(static_cast<size_t>(d));
    }
  };
  VisitLeaves(&e, bind);
  std::sort(dims->begin() + first, dims->end());
  return all_resolved;
}

CellScope::CellScope(const ViewDef& view, const ParamMap& params)
    : bindings_(view), cell_(view.attributes().size(), nullptr) {
  for (const auto& [name, value] : params) {
    layout_.Add(name);
    values_.push_back(&value);
  }
}

bool CellScope::Resolve(const Expr& e, std::vector<size_t>* dims) {
  const bool resolved = bindings_.Resolve(e, &layout_, dims);
  values_.resize(layout_.size(), nullptr);  // names the map lacks: unbound
  return resolved;
}

CellFrame CellScope::frame() const {
  return CellFrame{&bindings_, values_, cell_.data()};
}

Result<Value> EvalCellExpr(const Expr& e, const CellFrame& frame) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value;
    case ExprKind::kColumnRef: {
      for (const auto& [ref, dim] : frame.bindings->refs_) {
        if (ref != &e) continue;
        const Value* rep =
            dim < 0 ? nullptr : frame.cell[static_cast<size_t>(dim)];
        if (rep == nullptr) break;
        return *rep;
      }
      return Status::NotFound(
          "cell has no attribute '" +
          static_cast<const ColumnRefExpr&>(e).FullName() + "'");
    }
    case ExprKind::kParam: {
      for (const auto& [param, slot] : frame.bindings->params_) {
        if (param != &e) continue;
        const Value* value =
            slot < frame.params.size() ? frame.params[slot] : nullptr;
        if (value == nullptr) break;
        return *value;
      }
      return Status::NotFound("unbound parameter '$" +
                              static_cast<const ParamExpr&>(e).name + "'");
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
        VR_ASSIGN_OR_RETURN(Value lv, EvalCellExpr(*b.left, frame));
        VR_ASSIGN_OR_RETURN(Value rv, EvalCellExpr(*b.right, frame));
        Tri l = ToTri(lv);
        Tri r = ToTri(rv);
        if (b.op == BinaryOp::kAnd) {
          if (l == Tri::kFalse || r == Tri::kFalse) return FromTri(Tri::kFalse);
          if (l == Tri::kNull || r == Tri::kNull) return FromTri(Tri::kNull);
          return FromTri(Tri::kTrue);
        }
        if (l == Tri::kTrue || r == Tri::kTrue) return FromTri(Tri::kTrue);
        if (l == Tri::kNull || r == Tri::kNull) return FromTri(Tri::kNull);
        return FromTri(Tri::kFalse);
      }
      VR_ASSIGN_OR_RETURN(Value l, EvalCellExpr(*b.left, frame));
      VR_ASSIGN_OR_RETURN(Value r, EvalCellExpr(*b.right, frame));
      if (IsComparisonOp(b.op)) {
        VR_ASSIGN_OR_RETURN(Value::TriCompare c, l.CompareSql(r));
        if (c.is_null) return Value::Null();
        bool res = false;
        switch (b.op) {
          case BinaryOp::kEq: res = c.cmp == 0; break;
          case BinaryOp::kNe: res = c.cmp != 0; break;
          case BinaryOp::kLt: res = c.cmp < 0; break;
          case BinaryOp::kLe: res = c.cmp <= 0; break;
          case BinaryOp::kGt: res = c.cmp > 0; break;
          case BinaryOp::kGe: res = c.cmp >= 0; break;
          default: break;
        }
        return Value::Int(res ? 1 : 0);
      }
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::TypeMismatch("cell arithmetic on non-numeric values");
      }
      double a = l.ToDouble();
      double b2 = r.ToDouble();
      switch (b.op) {
        case BinaryOp::kAdd: return Value::Double(a + b2);
        case BinaryOp::kSub: return Value::Double(a - b2);
        case BinaryOp::kMul: return Value::Double(a * b2);
        case BinaryOp::kDiv:
          if (b2 == 0) return Status::ExecutionError("cell division by zero");
          return Value::Double(a / b2);
        default:
          return Status::Internal("unhandled cell binary op");
      }
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*u.operand, frame));
      if (u.op == UnaryOp::kNot) {
        Tri t = ToTri(v);
        if (t == Tri::kNull) return Value::Null();
        return Value::Int(t == Tri::kTrue ? 0 : 1);
      }
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDoubleExact());
      return Status::TypeMismatch("negating non-numeric cell value");
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(e);
      if (f.name == "coalesce") {
        for (const auto& a : f.args) {
          VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*a, frame));
          if (!v.is_null()) return v;
        }
        return Value::Null();
      }
      if (f.name == "isnull" || f.name == "isnotnull") {
        VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*f.args[0], frame));
        return Value::Int((f.name == "isnull") == v.is_null() ? 1 : 0);
      }
      if (f.name == "ifpos") {
        VR_ASSIGN_OR_RETURN(Value cond, EvalCellExpr(*f.args[0], frame));
        if (ToTri(cond) != Tri::kTrue) return Value::Null();
        return EvalCellExpr(*f.args[1], frame);
      }
      if (f.name == "abs") {
        VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*f.args[0], frame));
        if (v.is_null()) return Value::Null();
        return Value::Double(std::fabs(v.ToDouble()));
      }
      return Status::Unsupported("cell function '" + f.name + "'");
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(e);
      if (in.subquery) {
        return Status::Unsupported("cell IN over a subquery (not rewritten?)");
      }
      VR_ASSIGN_OR_RETURN(Value lhs, EvalCellExpr(*in.lhs, frame));
      if (lhs.is_null()) return Value::Null();
      bool any_null = false;
      for (const auto& item : in.value_list) {
        VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*item, frame));
        if (v.is_null()) {
          any_null = true;
          continue;
        }
        VR_ASSIGN_OR_RETURN(Value::TriCompare c, lhs.CompareSql(v));
        if (!c.is_null && c.cmp == 0) {
          return Value::Int(in.negated ? 0 : 1);
        }
      }
      if (any_null) return Value::Null();
      return Value::Int(in.negated ? 1 : 0);
    }
    default:
      return Status::Unsupported(
          "cell evaluation of subquery expression (not rewritten?)");
  }
}

Result<bool> EvalCellPredicate(const Expr& e, const CellFrame& frame) {
  VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(e, frame));
  return ToTri(v) == Tri::kTrue;
}

}  // namespace viewrewrite
