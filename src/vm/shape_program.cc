/**
 * @file
 * The shape program: compiling symbolic expressions into straight-line
 * integer code (exec.h), and the loop that runs one expression's range.
 * The rules are tryEvalInt's, so a compiled expression yields exactly the
 * value, or the failure, that evaluating its tree would.
 */
#include "vm/exec.h"

#include <algorithm>

namespace relax {
namespace vm {

ShapeProgram::ShapeProgram(std::vector<::relax::Var> slots)
    : slots_(std::move(slots)), registers_(slots_.size(), 0)
{
}

int32_t
ShapeProgram::Compiler::compile(const PrimExpr& expr,
                                const std::vector<char>* bound)
{
    Expr compiled;
    compiled.begin = (int32_t)p_.code_.size();
    compiled.value = lower(expr, bound);
    compiled.end = (int32_t)p_.code_.size();
    if (compiled.begin == compiled.end) return ~compiled.value;
    p_.exprs_.push_back(compiled);
    return (int32_t)p_.exprs_.size() - 1;
}

int32_t
ShapeProgram::Compiler::emit(Op op, int32_t d, int32_t a, int32_t b)
{
    p_.code_.push_back({op, d, a, b});
    return (int32_t)p_.code_.size() - 1;
}

int32_t
ShapeProgram::Compiler::temporary()
{
    p_.registers_.push_back(0);
    return (int32_t)p_.registers_.size() - 1;
}

int32_t
ShapeProgram::Compiler::lower(const PrimExpr& expr,
                              const std::vector<char>* bound)
{
    switch (expr->kind()) {
      case ExprKind::kIntImm: {
        int64_t value = static_cast<const IntImmNode*>(expr.get())->value;
        auto [it, inserted] = constants_.emplace(value, 0);
        if (inserted) {
            it->second = temporary();
            p_.registers_[it->second] = value;
        }
        return it->second;
      }
      case ExprKind::kVar: {
        for (size_t slot = 0; slot < p_.slots_.size(); ++slot) {
            if (p_.slots_[slot].get() != expr.get()) continue;
            if (!bound || (*bound)[slot]) return (int32_t)slot;
            break;
        }
        int32_t dst = temporary();
        emit(Op::kFail, dst);
        return dst;
      }
      case ExprKind::kNot: {
        const auto* node = static_cast<const UnaryNode*>(expr.get());
        int32_t a = lower(node->a, bound);
        int32_t dst = temporary();
        emit(Op::kNot, dst, a);
        return dst;
      }
      case ExprKind::kCast:
        return lower(static_cast<const UnaryNode*>(expr.get())->a, bound);
      case ExprKind::kSelect: {
        // Only the taken arm is evaluated.
        const auto* node = static_cast<const SelectNode*>(expr.get());
        int32_t branch = emit(Op::kJumpIfZero, 0, lower(node->cond, bound));
        int32_t dst = temporary();
        emit(Op::kMove, dst, lower(node->trueValue, bound));
        int32_t skip = emit(Op::kJump, 0);
        p_.code_[branch].b = (int32_t)p_.code_.size();
        emit(Op::kMove, dst, lower(node->falseValue, bound));
        p_.code_[skip].b = (int32_t)p_.code_.size();
        return dst;
      }
      case ExprKind::kFloatImm:
      case ExprKind::kCall:
      case ExprKind::kBufferLoad: {
        int32_t dst = temporary();
        emit(Op::kFail, dst);
        return dst;
      }
      default:
        break;
    }
    Op op;
    switch (expr->kind()) {
      case ExprKind::kAdd: op = Op::kAdd; break;
      case ExprKind::kSub: op = Op::kSub; break;
      case ExprKind::kMul: op = Op::kMul; break;
      case ExprKind::kDiv: op = Op::kDiv; break;
      case ExprKind::kFloorDiv: op = Op::kFloorDiv; break;
      case ExprKind::kFloorMod: op = Op::kFloorMod; break;
      case ExprKind::kMin: op = Op::kMin; break;
      case ExprKind::kMax: op = Op::kMax; break;
      case ExprKind::kEQ: op = Op::kEQ; break;
      case ExprKind::kNE: op = Op::kNE; break;
      case ExprKind::kLT: op = Op::kLT; break;
      case ExprKind::kLE: op = Op::kLE; break;
      case ExprKind::kGT: op = Op::kGT; break;
      case ExprKind::kGE: op = Op::kGE; break;
      case ExprKind::kAnd: op = Op::kAnd; break;
      case ExprKind::kOr: op = Op::kOr; break;
      default: op = Op::kFail; break;
    }
    const auto* node = static_cast<const BinaryNode*>(expr.get());
    int32_t a = op == Op::kFail ? 0 : lower(node->a, bound);
    int32_t b = op == Op::kFail ? 0 : lower(node->b, bound);
    int32_t dst = temporary();
    emit(op, dst, a, b);
    return dst;
}

namespace {

int64_t
floordivImpl(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

} // namespace

std::optional<int64_t>
ShapeProgram::run(const Expr& expr, int64_t* r) const
{
    const Step* code = code_.data();
    for (int32_t pc = expr.begin; pc < expr.end;) {
        const Step& s = code[pc++];
        switch (s.op) {
          case Op::kAdd: r[s.d] = r[s.a] + r[s.b]; break;
          case Op::kSub: r[s.d] = r[s.a] - r[s.b]; break;
          case Op::kMul: r[s.d] = r[s.a] * r[s.b]; break;
          case Op::kDiv:
            if (r[s.b] == 0) return std::nullopt;
            r[s.d] = r[s.a] / r[s.b];
            break;
          case Op::kFloorDiv:
            if (r[s.b] == 0) return std::nullopt;
            r[s.d] = floordivImpl(r[s.a], r[s.b]);
            break;
          case Op::kFloorMod:
            if (r[s.b] == 0) return std::nullopt;
            r[s.d] = r[s.a] - floordivImpl(r[s.a], r[s.b]) * r[s.b];
            break;
          case Op::kMin: r[s.d] = std::min(r[s.a], r[s.b]); break;
          case Op::kMax: r[s.d] = std::max(r[s.a], r[s.b]); break;
          case Op::kEQ: r[s.d] = r[s.a] == r[s.b]; break;
          case Op::kNE: r[s.d] = r[s.a] != r[s.b]; break;
          case Op::kLT: r[s.d] = r[s.a] < r[s.b]; break;
          case Op::kLE: r[s.d] = r[s.a] <= r[s.b]; break;
          case Op::kGT: r[s.d] = r[s.a] > r[s.b]; break;
          case Op::kGE: r[s.d] = r[s.a] >= r[s.b]; break;
          case Op::kAnd: r[s.d] = r[s.a] != 0 && r[s.b] != 0; break;
          case Op::kOr: r[s.d] = r[s.a] != 0 || r[s.b] != 0; break;
          case Op::kNot: r[s.d] = r[s.a] == 0 ? 1 : 0; break;
          case Op::kMove: r[s.d] = r[s.a]; break;
          case Op::kJumpIfZero:
            if (r[s.a] == 0) pc = s.b;
            break;
          case Op::kJump: pc = s.b; break;
          case Op::kFail: return std::nullopt;
        }
    }
    return r[expr.value];
}

} // namespace vm
} // namespace relax
