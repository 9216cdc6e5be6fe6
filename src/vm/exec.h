/**
 * @file
 * The VM executable: the artifact the compiler builds (§4.7). Graph-level
 * code becomes a sequence of virtual machine instructions, each a call
 * into a generated kernel, a library kernel or a runtime builtin; symbolic
 * shape values live in a per-invocation symbol table (the paper's
 * "integer host tensor") populated by shape-matching instructions on the
 * inputs and read when evaluating symbolic expressions at runtime.
 * Every call is bound to its target when the executable is built, so
 * running an instruction looks nothing up by name.
 */
#ifndef RELAX_VM_EXEC_H_
#define RELAX_VM_EXEC_H_

#include <map>
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

    // kMatchShape: per entry (dim index, var to bind) on register args[0];
    // `checks` holds (dim index, expression) runtime verifications.
    std::vector<std::pair<int, ::relax::Var>> binds;
    std::vector<std::pair<int, PrimExpr>> checks;

    // kAllocStorage / kAllocTensor
    PrimExpr sizeExpr;
    std::vector<PrimExpr> shape;
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
    std::vector<PrimExpr> symExprs; //!< evaluated into kernel sym args
    ir::Attrs attrs;
    /**
     * kKernelCall (library callees): per-argument symbolic shape
     * expressions, one entry per register in `args` (empty inner vector
     * when the argument's annotation carries no shape). The site's
     * reference program is built over them. Inside a bucketed graph
     * region the VM re-evaluates them at the padded binding so library
     * kernels are priced at the bucket ceiling, exactly like generated
     * kernels (the padding-correctness invariant, DESIGN.md §4).
     */
    std::vector<std::vector<PrimExpr>> argShapes;

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
};

/**
 * One DPS kernel target: a generated kernel (one entry however many sites
 * call it) or a library call site. The VM fills each part on first need:
 * a generated kernel's symbolic roofline cost on its first launch; a
 * library site's reference program (`func`) and every `program` on the
 * first data-mode launch.
 */
struct KernelEntry
{
    tir::PrimFunc func;
    PrimExpr flops;
    PrimExpr bytes;
    tir::PatternKind kind;
    std::shared_ptr<const tir::SlotProgram> program;
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
