/**
 * @file
 * The VM executable: the artifact the compiler builds (§4.7). Graph-level
 * code becomes a sequence of virtual machine instructions, each a call
 * into a generated kernel, a library kernel or a runtime builtin.
 * Symbolic shape values live in a per-invocation slot frame (the paper's
 * "integer host tensor"): every symbolic variable of a function owns one
 * int64 slot, shape-matching instructions write the slots from the input
 * shapes, and every symbolic expression an instruction carries is
 * compiled into the function's shape program, straight-line integer code
 * over the frame. Every call is bound to its target when the executable
 * is built, so running an instruction looks nothing up by name and walks
 * no expression.
 */
#ifndef RELAX_VM_EXEC_H_
#define RELAX_VM_EXEC_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/module.h"
#include "tir/analysis.h"
#include "tir/interpreter.h"

namespace relax {
namespace vm {

struct LibraryKernel;

/** Register index. */
using RegIndex = int32_t;

/**
 * Symbolic shape expressions compiled into straight-line integer code
 * over an int64 register file: its first registers are one slot per
 * variable, then constants and temporaries. registers() is the file's
 * initial state. A compiled expression is a range of code plus the
 * register that holds its value; one that is a variable or a constant is
 * just that register and runs no code. Evaluation follows tryEvalInt: a
 * Select evaluates only its taken arm, and division by zero, an unbound
 * variable or a non-integer node makes the expression fail.
 */
class ShapeProgram
{
  private:
    enum class Op : uint8_t {
        // d = a <op> b
        kAdd, kSub, kMul, kDiv, kFloorDiv, kFloorMod, kMin, kMax,
        kEQ, kNE, kLT, kLE, kGT, kGE, kAnd, kOr,
        kNot,        //!< d = a == 0
        kMove,       //!< d = a
        kJumpIfZero, //!< if a == 0: pc = b
        kJump,       //!< pc = b
        kFail,       //!< the expression fails
    };
    struct Step
    {
        Op op;
        int32_t d, a, b;
    };
    struct Expr
    {
        int32_t begin, end, value;
    };

  public:
    explicit ShapeProgram(std::vector<::relax::Var> slots = {});

    /** Compiles expressions into a program; constants are shared
     *  between the expressions of one compiler. */
    class Compiler
    {
      public:
        explicit Compiler(ShapeProgram& program) : p_(program) {}

        /**
         * Compiles `expr` and returns its id. A variable without a slot,
         * or whose slot `bound` (when given) marks unbound, makes it fail.
         */
        int32_t compile(const PrimExpr& expr,
                        const std::vector<char>* bound = nullptr);

      private:
        int32_t lower(const PrimExpr& expr, const std::vector<char>* bound);
        int32_t emit(Op op, int32_t d, int32_t a = 0, int32_t b = 0);
        int32_t temporary();

        ShapeProgram& p_;
        std::map<int64_t, int32_t> constants_;
    };

    /** The variable of each slot: slot i is register i. */
    const std::vector<::relax::Var>& slots() const { return slots_; }
    const std::vector<int64_t>& registers() const { return registers_; }

    /**
     * The value of expression `id` over `regs`, a copy of registers() with
     * the slots set; nullopt when it fails. Writes temporaries only.
     */
    std::optional<int64_t>
    tryEval(int32_t id, int64_t* regs) const
    {
        if (id < 0) return regs[~id]; // a variable or a constant
        return run(exprs_[id], regs);
    }

  private:
    std::optional<int64_t> run(const Expr& expr, int64_t* regs) const;

    std::vector<::relax::Var> slots_;
    std::vector<int64_t> registers_;
    std::vector<Step> code_;
    std::vector<Expr> exprs_;
};

/** A symbolic expression an instruction carries and its compiled id. */
struct ShapeExpr
{
    ShapeExpr(PrimExpr expr = nullptr) : source(std::move(expr)) {}

    PrimExpr source;
    int32_t id = 0; //!< in the function's ShapeProgram
};

/** One VM instruction. */
struct Instr
{
    enum class Op : uint8_t {
        kMatchShape,   //!< bind/check symbolic vars against a tensor's shape
        kAllocStorage, //!< dst = storage of sizeExpr bytes
        kAllocTensor,  //!< dst = tensor(shape) [from storage when src >= 0]
        kKernelCall,   //!< DPS kernel launch (generated or library)
        kPackedCall,   //!< dst = builtin(args...) (runtime-allocating)
        kGraphBegin,   //!< execution-graph capture/replay region start
        kGraphEnd,
        kLoadConst, //!< dst = embedded constant tensor
        kRebind,    //!< dst = src
        kMakeTuple, //!< dst = (args...)
        kGetItem,   //!< dst = src[index]
        kRet
    };

    Op op;
    RegIndex dst = -1;
    std::vector<RegIndex> args;

    // kMatchShape: per entry (dim index, slot to write) on register
    // args[0]; `checks` holds (dim index, expression) runtime
    // verifications, evaluated after the writes.
    std::vector<std::pair<int, int32_t>> binds;
    std::vector<std::pair<int, ShapeExpr>> checks;

    // kAllocStorage / kAllocTensor
    ShapeExpr sizeExpr;
    std::vector<ShapeExpr> shape;
    DataType dtype;

    // kKernelCall / kPackedCall: `callee` names the target for traces and
    // tools. buildExecutable binds it to a linked library kernel or
    // builtin, an index into Executable::kernels (DPS calls), or a `ccl.*`
    // collective, which the device group runs in lockstep.
    std::string callee;
    bool isLibrary = false;
    const LibraryKernel* library = nullptr;
    int32_t kernel = -1;
    enum class Collective : uint8_t { kNone, kAllReduce, kAllGather };
    Collective collective = Collective::kNone;
    int numInputs = 0;
    int numOutputs = 0;
    std::vector<ShapeExpr> symExprs; //!< evaluated into kernel sym args
    /** The call's attributes, shared with its IR node. */
    std::shared_ptr<const ir::Attrs> attrs;
    /**
     * kKernelCall (library callees): per-argument symbolic shape
     * expressions, one entry per register in `args` (empty inner vector
     * when the argument's annotation carries no shape). The site's
     * reference program is built over them. Inside a bucketed graph
     * region the VM evaluates them over the padded frame so library
     * kernels are priced at the bucket ceiling, exactly like generated
     * kernels (the padding-correctness invariant, DESIGN.md §4).
     */
    std::vector<std::vector<ShapeExpr>> argShapes;
    /**
     * Function slots. kKernelCall (generated callees): per entry variable
     * of the kernel (KernelEntry::shapes slots), the slot of the same
     * variable, or -1; inside a bucketed graph region a kernel variable is
     * priced at its slot's padded value when that slot is padded.
     * kGraphBegin: the slots of every symbol bound before the region,
     * sorted by name; the capture signature lists their bucketed values.
     */
    std::vector<int32_t> symbols;

    // kGraphBegin / kGraphEnd
    int64_t graphId = -1;
    /**
     * kGraphBegin: bucket size for the capture signature. Symbolic dims
     * are rounded up to their bucket ceiling — the next multiple of
     * this block, or the next power of two when smaller — when keying
     * captured graphs, so nearby shapes (e.g. consecutive decode context
     * lengths) share one graph; kernels inside the region are priced at
     * the padded shape. 1 = exact signatures (no bucketing).
     */
    int64_t bucketBlock = 1;

    // kGetItem
    int index = 0;

    // kLoadConst
    NDArray constant;
};

/** One compiled function. */
struct VMFunction
{
    std::string name;
    int numParams = 0;
    int numRegs = 0;
    std::vector<Instr> instrs;
    /** Every expression of `instrs`, over one slot per symbolic variable
     *  the function binds. */
    ShapeProgram shapes;
};

/**
 * One step of binding a kernel's entry variables at a call, in the order
 * tir::bindShapes binds and checks them.
 */
struct BindStep
{
    enum class Kind : uint8_t {
        kSymArg, //!< slot `value` = symbolic argument `arg`
        kRank,   //!< argument `arg` has rank `value`
        kBind,   //!< slot `value` = dim `dim` of argument `arg`
        kSame,   //!< slot `value` == dim `dim` of argument `arg`
        kCheck,  //!< expression `value` == dim `dim` of argument `arg`
    };
    Kind kind;
    int32_t arg = 0;
    int32_t dim = 0;
    int32_t value = 0;
};

/**
 * One DPS kernel target: a generated kernel (one entry however many sites
 * call it) or a library call site. setFunc() derives how a call binds the
 * kernel's variables. The VM fills the rest on first need: a generated
 * kernel's roofline cost on its first launch; a library site's reference
 * program (`func`) and every `program` on the first data-mode launch.
 */
struct KernelEntry
{
    tir::PrimFunc func;
    /** Binding a call's arguments to the entry variables. */
    std::vector<BindStep> binds;
    /** Integer code over the entry variables (tir::entryVars): the dims
     *  `binds` checks, and the cost once compiled. */
    ShapeProgram shapes;
    /** The symbolic roofline cost (null until the first launch), and its
     *  ids in `shapes`. */
    PrimExpr flops;
    PrimExpr bytes;
    int32_t flopsId = 0;
    int32_t bytesId = 0;
    /** The product of the output dims but the last: the row count of the
     *  gemv rule. */
    int32_t rowsId = 0;
    tir::PatternKind kind;
    std::shared_ptr<const tir::SlotProgram> program;

    /** Sets `func` and derives `binds` and `shapes` from it. */
    void setFunc(tir::PrimFunc kernel);
};

/** A compiled module: functions plus the tensor programs they launch. */
class Executable
{
  public:
    std::map<std::string, VMFunction> functions;
    /** Kernel bodies (lowered to slot programs: the GPU codegen stand-in). */
    ir::IRModulePtr module;
    /** Every DPS kernel call target, indexed by Instr::kernel. */
    std::vector<KernelEntry> kernels;
};

using ExecutablePtr = std::shared_ptr<Executable>;

/**
 * Translates a fully lowered module (output of the Fig. 13 pipeline) to a
 * VM executable and binds every call to its target. Throws IRError when
 * un-lowered constructs remain or a callee is not linked.
 */
ExecutablePtr buildExecutable(const ir::IRModulePtr& module);

/** Renders the instruction stream for debugging/tests. */
std::string toString(const VMFunction& func);

} // namespace vm
} // namespace relax

#endif // RELAX_VM_EXEC_H_
