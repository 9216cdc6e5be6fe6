/**
 * @file
 * The reference executor: lowering a PrimFunc to a slot program, and the
 * instruction loop that runs one.
 *
 * Registers. A program has one file of double registers: one per
 * variable (its slot), one per distinct constant and one per expression
 * result. Operands name registers, so reading a variable or a constant
 * costs no instruction.
 *
 * Order. Instructions keep the evaluation order of the expression tree:
 * operands left to right, a Select evaluates only its taken arm, and a
 * store bounds-checks its index before it evaluates its value. When more
 * than one check could fail, the first in that order fires.
 *
 * Scope. A loop binds its variable for its body and unbinds it on exit;
 * an allocation binds its buffer from its entry on. Reading an unbound
 * variable or buffer throws RuntimeError. Lowering proves most reads
 * bound (entry variables, enclosing loops, parameters); only the others
 * get a run-time check instruction.
 */
#include "tir/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "support/error.h"
#include "tir/transform.h"

namespace relax {
namespace tir {

namespace {

/** Opcodes; `d`, `a`, `b`, `c` name the fields of Instr. */
enum class Op : uint8_t {
    // d = regs[a] <op> regs[b]; the kInt forms truncate both to int64.
    kAdd, kSub, kMul, kDiv, kFloorDiv, kFloorMod, kIntFloorDiv, kIntFloorMod,
    kMin, kMax, kEQ, kNE, kLT, kLE, kGT, kGE, kAnd, kOr, kPow,
    // d = f(regs[a])
    kNot, kIntCast, kMove, kExp, kLog, kSqrt, kRsqrt, kErf, kTanh, kSigmoid,
    kAbs, kPow2, kSin, kCos,
    kBadIntrinsic, //!< throws: unknown intrinsic names[b]
    kCheckVar,     //!< throws unless slot a is bound (named names[b])
    kCheckBuffer,  //!< throws unless buffer a is bound (named names[b])
    kLoad,         //!< d = buffer a at the c indices operands[b...]
    kStoreIndex,   //!< d = flat index of buffer a at operands[b...] (c)
    kStore,        //!< buffer a at flat index regs[b] = regs[d]
    kJumpIfZero,   //!< if regs[a] == 0: pc = b
    kJump,         //!< pc = b
    kLoopBegin,    //!< loop c binds slot d over [0, regs[a]); empty: pc = b
    kLoopNext,     //!< loop c advances slot d; another iteration: pc = b
    kAlloc,        //!< buffer a = zeroed scratch of allocation c
};

struct Instr
{
    Op op;
    int32_t d, a, b, c;
};

/** A scoped scratch buffer: its slot, and its shape as evaluated on entry. */
struct Allocation
{
    int32_t buffer;
    std::vector<PrimExpr> shape;
    /** Free variables of `shape` (owned by it) and their slots. */
    std::vector<std::pair<const VarNode*, int32_t>> vars;
};

struct Intrinsic
{
    Op op;
    size_t arity;
};

const std::unordered_map<std::string, Intrinsic>&
intrinsics()
{
    static const std::unordered_map<std::string, Intrinsic> table = {
        {"exp", {Op::kExp, 1}},         {"log", {Op::kLog, 1}},
        {"sqrt", {Op::kSqrt, 1}},       {"rsqrt", {Op::kRsqrt, 1}},
        {"erf", {Op::kErf, 1}},         {"tanh", {Op::kTanh, 1}},
        {"sigmoid", {Op::kSigmoid, 1}}, {"abs", {Op::kAbs, 1}},
        {"pow", {Op::kPow, 2}},         {"pow2", {Op::kPow2, 1}},
        {"sin", {Op::kSin, 1}},         {"cos", {Op::kCos, 1}},
    };
    return table;
}

Op
binaryOp(ExprKind kind, bool integer)
{
    switch (kind) {
      case ExprKind::kAdd: return Op::kAdd;
      case ExprKind::kSub: return Op::kSub;
      case ExprKind::kMul: return Op::kMul;
      case ExprKind::kDiv: return Op::kDiv;
      case ExprKind::kFloorDiv:
        return integer ? Op::kIntFloorDiv : Op::kFloorDiv;
      case ExprKind::kFloorMod:
        return integer ? Op::kIntFloorMod : Op::kFloorMod;
      case ExprKind::kMin: return Op::kMin;
      case ExprKind::kMax: return Op::kMax;
      case ExprKind::kEQ: return Op::kEQ;
      case ExprKind::kNE: return Op::kNE;
      case ExprKind::kLT: return Op::kLT;
      case ExprKind::kLE: return Op::kLE;
      case ExprKind::kGT: return Op::kGT;
      case ExprKind::kGE: return Op::kGE;
      case ExprKind::kAnd: return Op::kAnd;
      case ExprKind::kOr: return Op::kOr;
      default: break;
    }
    RELAX_ICHECK(false) << "unexpected expr kind";
    return Op::kAdd;
}

bool
isBound(const std::vector<bool>& bound, int32_t slot)
{
    return (size_t)slot < bound.size() && bound[slot];
}

void
setBound(std::vector<bool>& bound, int32_t slot, bool value)
{
    if ((size_t)slot >= bound.size()) bound.resize(slot + 1, false);
    bound[slot] = value;
}

void
intersect(std::vector<bool>& into, const std::vector<bool>& other)
{
    into.resize(std::min(into.size(), other.size()));
    for (size_t i = 0; i < into.size(); ++i) into[i] = into[i] && other[i];
}

int64_t
floordivImpl(int64_t a, int64_t b)
{
    RELAX_ICHECK(b != 0) << "floordiv by zero";
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

} // namespace

class SlotProgram
{
  public:
    std::vector<Instr> code;
    /** Index registers of loads and stores, consecutive per access. */
    std::vector<int32_t> operands;
    /** The register file at entry: constants set, everything else 0. */
    std::vector<double> registers;
    /** The slot of each of entryVars(func), in order. */
    std::vector<int32_t> entry;
    /** Buffer slot of each parameter. */
    std::vector<int32_t> params;
    int32_t numBuffers = 0;
    int32_t numLoops = 0;
    std::vector<Allocation> allocations;
    /** Variable, buffer and intrinsic names for error messages. */
    std::vector<std::string> names;
};

namespace {

/** Lowers one PrimFunc into a SlotProgram. */
class Lowerer
{
  public:
    explicit Lowerer(SlotProgram& program) : p_(program) {}

    void
    lowerFunc(const PrimFunc& func)
    {
        for (const Var& v : entryVars(func)) {
            int32_t slot = slotOf(v.get());
            setBound(vars_, slot, true);
            p_.entry.push_back(slot);
        }
        for (const Buffer& buffer : func->params) {
            int32_t slot = bufferOf(*buffer);
            p_.params.push_back(slot);
            setBound(buffers_, slot, true);
        }
        lowerStmt(func->body);
    }

  private:
    int32_t
    emit(Op op, int32_t d, int32_t a = 0, int32_t b = 0, int32_t c = 0)
    {
        p_.code.push_back({op, d, a, b, c});
        return (int32_t)p_.code.size() - 1;
    }

    /** Points the jump field `b` of instruction `at` to the next one. */
    void patch(int32_t at) { p_.code[at].b = (int32_t)p_.code.size(); }

    int32_t
    newRegister(double init = 0.0)
    {
        p_.registers.push_back(init);
        return (int32_t)p_.registers.size() - 1;
    }

    int32_t
    constant(double value)
    {
        uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        auto [it, inserted] = constants_.emplace(bits, 0);
        if (inserted) it->second = newRegister(value);
        return it->second;
    }

    int32_t
    slotOf(const VarNode* v)
    {
        auto [it, inserted] = slots_.emplace(v, 0);
        if (inserted) it->second = newRegister();
        return it->second;
    }

    int32_t
    bufferOf(const BufferNode& buffer)
    {
        auto [it, inserted] = bufferSlots_.emplace(&buffer, p_.numBuffers);
        if (inserted) ++p_.numBuffers;
        return it->second;
    }

    int32_t
    name(const std::string& text)
    {
        p_.names.push_back(text);
        return (int32_t)p_.names.size() - 1;
    }

    /** Slot of the buffer an access reads or writes. */
    int32_t
    accessed(const BufferNode& node)
    {
        int32_t buffer = bufferOf(node);
        if (!isBound(buffers_, buffer)) {
            emit(Op::kCheckBuffer, 0, buffer, name(node.name));
        }
        return buffer;
    }

    /** Lowers the indices of an access; returns the first operand. */
    int32_t
    lowerIndices(const std::vector<PrimExpr>& indices)
    {
        std::vector<int32_t> regs;
        regs.reserve(indices.size());
        for (const auto& index : indices) regs.push_back(lowerExpr(index));
        p_.operands.insert(p_.operands.end(), regs.begin(), regs.end());
        return (int32_t)(p_.operands.size() - regs.size());
    }

    /** Lowers `expr`; returns the register that holds its value. */
    int32_t
    lowerExpr(const PrimExpr& expr)
    {
        switch (expr->kind()) {
          case ExprKind::kIntImm:
            return constant(
                (double)static_cast<const IntImmNode*>(expr.get())->value);
          case ExprKind::kFloatImm:
            return constant(
                static_cast<const FloatImmNode*>(expr.get())->value);
          case ExprKind::kVar: {
            const auto* v = static_cast<const VarNode*>(expr.get());
            int32_t slot = slotOf(v);
            if (!isBound(vars_, slot)) {
                emit(Op::kCheckVar, 0, slot, name(v->name));
            }
            return slot;
          }
          case ExprKind::kBufferLoad: {
            const auto* node = static_cast<const BufferLoadNode*>(expr.get());
            int32_t buffer = accessed(*node->buffer);
            int32_t first = lowerIndices(node->indices);
            int32_t dst = newRegister();
            emit(Op::kLoad, dst, buffer, first, (int32_t)node->indices.size());
            return dst;
          }
          case ExprKind::kNot: {
            int32_t a = lowerExpr(static_cast<const UnaryNode*>(expr.get())->a);
            int32_t dst = newRegister();
            emit(Op::kNot, dst, a);
            return dst;
          }
          case ExprKind::kCast: {
            int32_t a = lowerExpr(static_cast<const UnaryNode*>(expr.get())->a);
            if (!expr->dtype().isInt() && !expr->dtype().isUInt()) return a;
            int32_t dst = newRegister();
            emit(Op::kIntCast, dst, a);
            return dst;
          }
          case ExprKind::kSelect: {
            // Only the taken arm is evaluated.
            const auto* node = static_cast<const SelectNode*>(expr.get());
            int32_t branch = emit(Op::kJumpIfZero, 0, lowerExpr(node->cond));
            int32_t dst = newRegister();
            emit(Op::kMove, dst, lowerExpr(node->trueValue));
            int32_t skip = emit(Op::kJump, 0);
            patch(branch);
            emit(Op::kMove, dst, lowerExpr(node->falseValue));
            patch(skip);
            return dst;
          }
          case ExprKind::kCall: {
            const auto* node = static_cast<const CallNode*>(expr.get());
            std::vector<int32_t> args;
            args.reserve(node->args.size());
            for (const auto& arg : node->args) args.push_back(lowerExpr(arg));
            int32_t dst = newRegister();
            auto it = intrinsics().find(node->op);
            if (it == intrinsics().end()) {
                emit(Op::kBadIntrinsic, dst, 0, name(node->op));
                return dst;
            }
            RELAX_ICHECK(args.size() >= it->second.arity)
                << node->op << " takes " << it->second.arity << " arguments";
            emit(it->second.op, dst, args[0],
                 it->second.arity > 1 ? args[1] : 0);
            return dst;
          }
          default: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            bool integer =
                node->a->dtype().isInt() || node->a->dtype().isUInt();
            Op op = binaryOp(expr->kind(), integer);
            int32_t a = lowerExpr(node->a);
            int32_t b = lowerExpr(node->b);
            int32_t dst = newRegister();
            emit(op, dst, a, b);
            return dst;
          }
        }
    }

    void
    lowerStmt(const Stmt& stmt)
    {
        switch (stmt->kind()) {
          case StmtKind::kFor: {
            const auto* node = static_cast<const ForNode*>(stmt.get());
            int32_t extent = lowerExpr(node->extent);
            int32_t slot = slotOf(node->loopVar.get());
            int32_t loop = p_.numLoops++;
            // Every loop inside unbinds its variable on exit, so from the
            // second iteration on (and after this loop) none is known.
            for (const Var& inner : collectLoopVars(node->body)) {
                setBound(vars_, slotOf(inner.get()), false);
            }
            std::vector<bool> buffers = buffers_;
            setBound(vars_, slot, true);
            int32_t begin = emit(Op::kLoopBegin, slot, extent, 0, loop);
            lowerStmt(node->body);
            emit(Op::kLoopNext, slot, 0, begin + 1, loop);
            patch(begin);
            setBound(vars_, slot, false);
            buffers_ = std::move(buffers);
            return;
          }
          case StmtKind::kBufferStore: {
            const auto* node = static_cast<const BufferStoreNode*>(stmt.get());
            int32_t buffer = accessed(*node->buffer);
            int32_t first = lowerIndices(node->indices);
            int32_t flat = newRegister();
            emit(Op::kStoreIndex, flat, buffer, first,
                 (int32_t)node->indices.size());
            emit(Op::kStore, lowerExpr(node->value), buffer, flat);
            return;
          }
          case StmtKind::kIfThenElse: {
            const auto* node = static_cast<const IfThenElseNode*>(stmt.get());
            int32_t branch = emit(Op::kJumpIfZero, 0, lowerExpr(node->cond));
            std::vector<bool> vars = vars_, buffers = buffers_;
            lowerStmt(node->thenBody);
            if (node->elseBody) {
                int32_t skip = emit(Op::kJump, 0);
                patch(branch);
                std::swap(vars, vars_);
                std::swap(buffers, buffers_);
                lowerStmt(node->elseBody);
                patch(skip);
            } else {
                patch(branch);
            }
            intersect(vars_, vars);
            intersect(buffers_, buffers);
            return;
          }
          case StmtKind::kSeq:
            for (const auto& s :
                 static_cast<const SeqStmtNode*>(stmt.get())->seq) {
                lowerStmt(s);
            }
            return;
          case StmtKind::kAllocBuffer: {
            const auto* node = static_cast<const AllocBufferNode*>(stmt.get());
            Allocation alloc;
            alloc.buffer = bufferOf(*node->buffer);
            alloc.shape = node->buffer->shape;
            std::unordered_set<const VarNode*> vars;
            for (const auto& dim : alloc.shape) collectVars(dim, &vars);
            for (const VarNode* v : vars) {
                alloc.vars.emplace_back(v, slotOf(v));
            }
            emit(Op::kAlloc, 0, alloc.buffer, 0,
                 (int32_t)p_.allocations.size());
            setBound(buffers_, alloc.buffer, true);
            p_.allocations.push_back(std::move(alloc));
            lowerStmt(node->body);
            return;
          }
        }
    }

    SlotProgram& p_;
    std::unordered_map<const VarNode*, int32_t> slots_;
    std::unordered_map<const BufferNode*, int32_t> bufferSlots_;
    std::unordered_map<uint64_t, int32_t> constants_;
    /** What lowering has proven bound at the current point. */
    std::vector<bool> vars_;
    std::vector<bool> buffers_;
};

/** Run-time state of one buffer slot. */
struct BufferSlot
{
    double* data = nullptr; //!< null when metadata-only
    const int64_t* shape = nullptr;
    size_t rank = 0;
    bool bound = false;
};

/** The error paths of flatIndex, kept out of the instruction loop. */
[[noreturn, gnu::noinline, gnu::cold]] void
rankMismatch(int32_t rank, size_t buffer_rank)
{
    RELAX_THROW(InternalError) << "rank mismatch: " << rank
                               << " indices for a rank-" << buffer_rank
                               << " buffer";
}

[[noreturn, gnu::noinline, gnu::cold]] void
outOfBounds(int64_t index, int64_t dim)
{
    RELAX_THROW(InternalError)
        << "index " << index << " out of bounds for dim " << dim;
}

/** Row-major flat index of an access, bounds-checked per dim. */
inline int64_t
flatIndex(const BufferSlot& buffer, const int32_t* indices, int32_t rank,
          const double* regs)
{
    if ((size_t)rank != buffer.rank) rankMismatch(rank, buffer.rank);
    int64_t flat = 0;
    for (int32_t i = 0; i < rank; ++i) {
        int64_t index = (int64_t)regs[indices[i]];
        int64_t dim = buffer.shape[i];
        if (index < 0 || index >= dim) outOfBounds(index, dim);
        flat = flat * dim + index;
    }
    return flat;
}

} // namespace

std::vector<Var>
entryVars(const PrimFunc& func)
{
    std::vector<Var> vars;
    auto add = [&](Var v) {
        if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
            vars.push_back(std::move(v));
        }
    };
    for (const Var& v : func->symParams) add(v);
    for (const Buffer& buffer : func->params) {
        for (const PrimExpr& dim : buffer->shape) {
            if (dim->kind() == ExprKind::kVar) {
                add(std::static_pointer_cast<const VarNode>(dim));
            }
        }
    }
    return vars;
}

std::shared_ptr<const SlotProgram>
lower(const PrimFunc& func)
{
    auto program = std::make_shared<SlotProgram>();
    Lowerer(*program).lowerFunc(func);
    return program;
}

void
execute(const SlotProgram& p, const std::vector<NDArray>& args,
        const std::vector<int64_t>& entry)
{
    RELAX_ICHECK(args.size() == p.params.size())
        << "expected " << p.params.size() << " buffer arguments, got "
        << args.size();
    RELAX_ICHECK(entry.size() == p.entry.size())
        << "expected " << p.entry.size() << " entry values, got "
        << entry.size();
    std::vector<double> regs = p.registers;
    std::vector<char> bound(regs.size(), 0);
    for (size_t i = 0; i < entry.size(); ++i) {
        regs[p.entry[i]] = (double)entry[i];
        bound[p.entry[i]] = 1;
    }
    std::vector<BufferSlot> buffers(p.numBuffers);
    for (size_t i = 0; i < args.size(); ++i) {
        // NDArray copies share storage: a kernel writes its DPS outputs
        // through the caller's handles.
        BufferSlot& buffer = buffers[p.params[i]];
        buffer.data = args[i].hasData()
                          ? const_cast<double*>(args[i].data().data())
                          : nullptr;
        buffer.shape = args[i].shape().data();
        buffer.rank = args[i].shape().size();
        buffer.bound = true;
    }
    std::vector<std::vector<double>> scratch(p.allocations.size());
    std::vector<std::vector<int64_t>> scratchShapes(p.allocations.size());
    std::vector<int64_t> iterations(p.numLoops), extents(p.numLoops);

    double* r = regs.data();
    const Instr* code = p.code.data();
    const int32_t* operands = p.operands.data();
    for (size_t pc = 0, end = p.code.size(); pc < end;) {
        const Instr& in = code[pc++];
        switch (in.op) {
          case Op::kAdd: r[in.d] = r[in.a] + r[in.b]; break;
          case Op::kSub: r[in.d] = r[in.a] - r[in.b]; break;
          case Op::kMul: r[in.d] = r[in.a] * r[in.b]; break;
          case Op::kDiv: r[in.d] = r[in.a] / r[in.b]; break;
          case Op::kFloorDiv: r[in.d] = std::floor(r[in.a] / r[in.b]); break;
          case Op::kFloorMod:
            r[in.d] = r[in.a] - std::floor(r[in.a] / r[in.b]) * r[in.b];
            break;
          case Op::kIntFloorDiv:
            r[in.d] = (double)floordivImpl((int64_t)r[in.a],
                                           (int64_t)r[in.b]);
            break;
          case Op::kIntFloorMod: {
            int64_t a = (int64_t)r[in.a], b = (int64_t)r[in.b];
            r[in.d] = (double)(a - floordivImpl(a, b) * b);
            break;
          }
          case Op::kMin: r[in.d] = std::min(r[in.a], r[in.b]); break;
          case Op::kMax: r[in.d] = std::max(r[in.a], r[in.b]); break;
          case Op::kEQ: r[in.d] = r[in.a] == r[in.b]; break;
          case Op::kNE: r[in.d] = r[in.a] != r[in.b]; break;
          case Op::kLT: r[in.d] = r[in.a] < r[in.b]; break;
          case Op::kLE: r[in.d] = r[in.a] <= r[in.b]; break;
          case Op::kGT: r[in.d] = r[in.a] > r[in.b]; break;
          case Op::kGE: r[in.d] = r[in.a] >= r[in.b]; break;
          case Op::kAnd: r[in.d] = r[in.a] != 0.0 && r[in.b] != 0.0; break;
          case Op::kOr: r[in.d] = r[in.a] != 0.0 || r[in.b] != 0.0; break;
          case Op::kPow: r[in.d] = std::pow(r[in.a], r[in.b]); break;
          case Op::kNot: r[in.d] = r[in.a] == 0.0 ? 1.0 : 0.0; break;
          case Op::kIntCast: r[in.d] = (double)(int64_t)r[in.a]; break;
          case Op::kMove: r[in.d] = r[in.a]; break;
          case Op::kExp: r[in.d] = std::exp(r[in.a]); break;
          case Op::kLog: r[in.d] = std::log(r[in.a]); break;
          case Op::kSqrt: r[in.d] = std::sqrt(r[in.a]); break;
          case Op::kRsqrt: r[in.d] = 1.0 / std::sqrt(r[in.a]); break;
          case Op::kErf: r[in.d] = std::erf(r[in.a]); break;
          case Op::kTanh: r[in.d] = std::tanh(r[in.a]); break;
          case Op::kSigmoid:
            r[in.d] = 1.0 / (1.0 + std::exp(-r[in.a]));
            break;
          case Op::kAbs: r[in.d] = std::fabs(r[in.a]); break;
          case Op::kPow2:
            r[in.d] = (double)(int64_t(1) << (int64_t)r[in.a]);
            break;
          case Op::kSin: r[in.d] = std::sin(r[in.a]); break;
          case Op::kCos: r[in.d] = std::cos(r[in.a]); break;
          case Op::kBadIntrinsic:
            RELAX_THROW(RuntimeError)
                << "unknown intrinsic: " << p.names[in.b];
          case Op::kCheckVar:
            if (!bound[in.a]) {
                RELAX_THROW(RuntimeError)
                    << "unbound variable " << p.names[in.b];
            }
            break;
          case Op::kCheckBuffer:
            if (!buffers[in.a].bound) {
                RELAX_THROW(RuntimeError)
                    << "unbound buffer " << p.names[in.b];
            }
            break;
          case Op::kLoad: {
            const BufferSlot& buffer = buffers[in.a];
            int64_t flat = flatIndex(buffer, operands + in.b, in.c, r);
            RELAX_ICHECK(buffer.data) << "metadata-only NDArray has no data";
            r[in.d] = buffer.data[flat];
            break;
          }
          case Op::kStoreIndex:
            r[in.d] = (double)flatIndex(buffers[in.a], operands + in.b,
                                        in.c, r);
            break;
          case Op::kStore: {
            const BufferSlot& buffer = buffers[in.a];
            RELAX_ICHECK(buffer.data) << "metadata-only NDArray has no data";
            buffer.data[(int64_t)r[in.b]] = r[in.d];
            break;
          }
          case Op::kJumpIfZero:
            if (r[in.a] == 0.0) pc = in.b;
            break;
          case Op::kJump: pc = in.b; break;
          case Op::kLoopBegin:
            extents[in.c] = (int64_t)r[in.a];
            if (extents[in.c] <= 0) {
                bound[in.d] = 0;
                pc = in.b;
                break;
            }
            iterations[in.c] = 0;
            r[in.d] = 0.0;
            bound[in.d] = 1;
            break;
          case Op::kLoopNext:
            if (++iterations[in.c] < extents[in.c]) {
                r[in.d] = (double)iterations[in.c];
                bound[in.d] = 1;
                pc = in.b;
            } else {
                bound[in.d] = 0;
            }
            break;
          case Op::kAlloc: {
            const Allocation& alloc = p.allocations[in.c];
            VarBinding scalars;
            for (const auto& [v, slot] : alloc.vars) {
                if (bound[slot]) scalars[v] = (int64_t)r[slot];
            }
            std::vector<int64_t>& shape = scratchShapes[in.c];
            shape.clear();
            for (const auto& dim : alloc.shape) {
                shape.push_back(evalInt(dim, scalars));
            }
            std::vector<double>& data = scratch[in.c];
            data.assign(std::accumulate(shape.begin(), shape.end(),
                                        int64_t(1),
                                        std::multiplies<int64_t>()),
                        0.0);
            buffers[in.a] = {data.data(), shape.data(), shape.size(), true};
            break;
          }
        }
    }
}

VarBinding
bindShapes(const PrimFunc& func, const std::vector<NDArray>& args,
           const std::vector<int64_t>& sym_args)
{
    if (args.size() != func->params.size()) {
        RELAX_THROW(ShapeError)
            << func->name << ": expected " << func->params.size()
            << " buffer arguments, got " << args.size();
    }
    if (sym_args.size() != func->symParams.size()) {
        RELAX_THROW(ShapeError)
            << func->name << ": expected " << func->symParams.size()
            << " symbolic arguments, got " << sym_args.size();
    }
    VarBinding binding;
    for (size_t i = 0; i < func->symParams.size(); ++i) {
        binding[func->symParams[i].get()] = sym_args[i];
    }
    // Two rounds: bind bare vars first, then verify composite expressions.
    for (size_t i = 0; i < args.size(); ++i) {
        const Buffer& buffer = func->params[i];
        if (buffer->shape.size() != args[i].shape().size()) {
            RELAX_THROW(ShapeError)
                << func->name << ": rank mismatch for " << buffer->name;
        }
        for (size_t d = 0; d < buffer->shape.size(); ++d) {
            const PrimExpr& dim = buffer->shape[d];
            int64_t concrete = args[i].shape()[d];
            if (dim->kind() == ExprKind::kVar) {
                const auto* v = static_cast<const VarNode*>(dim.get());
                auto [it, inserted] = binding.emplace(v, concrete);
                if (!inserted && it->second != concrete) {
                    RELAX_THROW(ShapeError)
                        << func->name << ": inconsistent binding for "
                        << v->name << ": " << it->second << " vs "
                        << concrete;
                }
            }
        }
    }
    for (size_t i = 0; i < args.size(); ++i) {
        const Buffer& buffer = func->params[i];
        for (size_t d = 0; d < buffer->shape.size(); ++d) {
            auto expected = tryEvalInt(buffer->shape[d], binding);
            if (!expected) {
                RELAX_THROW(ShapeError)
                    << func->name << ": cannot resolve dim "
                    << relax::toString(buffer->shape[d]) << " of "
                    << buffer->name;
            }
            if (*expected != args[i].shape()[d]) {
                RELAX_THROW(ShapeError)
                    << func->name << ": shape check failed for "
                    << buffer->name << " dim " << d << ": expected "
                    << *expected << ", got " << args[i].shape()[d];
            }
        }
    }
    return binding;
}

void
run(const PrimFunc& func, const std::vector<NDArray>& args,
    const std::vector<int64_t>& sym_args)
{
    VarBinding binding = bindShapes(func, args, sym_args);
    std::vector<int64_t> entry;
    for (const Var& v : entryVars(func)) entry.push_back(binding.at(v.get()));
    execute(*lower(func), args, entry);
}

} // namespace tir
} // namespace relax
