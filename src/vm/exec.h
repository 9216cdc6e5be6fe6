/**
 * @file
 * The VM executable: the artifact the compiler builds (§4.7). Graph-level
 * code becomes a sequence of virtual machine instructions, each a call
 * into a generated kernel or a runtime builtin; symbolic shape values
 * live in a per-invocation symbol table (the paper's "integer host
 * tensor") populated by shape-matching instructions on the inputs and
 * read when evaluating symbolic expressions at runtime.
 */
#ifndef RELAX_VM_EXEC_H_
#define RELAX_VM_EXEC_H_

#include <map>
#include <string>
#include <vector>

#include "ir/module.h"
#include "tir/analysis.h"

namespace relax {
namespace vm {

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

    // kKernelCall / kPackedCall
    std::string callee;
    bool isLibrary = false;
    int numInputs = 0;
    int numOutputs = 0;
    std::vector<PrimExpr> symExprs; //!< evaluated into kernel sym args
    ir::Attrs attrs;
    /**
     * kKernelCall (library callees): per-argument symbolic shape
     * expressions, one entry per register in `args` (empty inner vector
     * when the argument's annotation carries no shape). Inside a
     * bucketed graph region the VM re-evaluates these at the padded
     * binding so library kernels are priced at the bucket ceiling,
     * exactly like generated kernels (the padding-correctness
     * invariant, DESIGN.md §4). Generated kernels do not need this:
     * their cost expressions bind through the shared symbolic vars.
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

/** Symbolic roofline cost of one generated kernel (timing mode). */
struct KernelCostExprs
{
    PrimExpr flops;
    PrimExpr bytes;
    tir::PatternKind kind;
};

/** A compiled module: functions plus the tensor programs they launch. */
class Executable
{
  public:
    std::map<std::string, VMFunction> functions;
    /** Kernel bodies (interpreted as the stand-in for GPU codegen). */
    ir::IRModulePtr module;
    /**
     * Cost expressions of `module`'s kernels, derived by the VM on first
     * launch. Keyed by node: `module` owns every key, so the cache lives
     * and dies with the kernels it describes.
     */
    std::map<const tir::PrimFuncNode*, KernelCostExprs> kernelCosts;
};

using ExecutablePtr = std::shared_ptr<Executable>;

/**
 * Translates a fully lowered module (output of the Fig. 13 pipeline) to a
 * VM executable. Throws IRError when un-lowered constructs remain.
 */
ExecutablePtr buildExecutable(const ir::IRModulePtr& module);

/** Renders the instruction stream for debugging/tests. */
std::string toString(const VMFunction& func);

} // namespace vm
} // namespace relax

#endif // RELAX_VM_EXEC_H_
