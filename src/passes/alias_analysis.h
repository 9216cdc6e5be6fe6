/**
 * @file
 * Alias/liveness analysis over Relax dataflow blocks, and the in-place
 * planning pass + safety lint built on it.
 *
 * The analysis is a single forward sweep in the SSA alias-analysis idiom:
 * every tensor var carries a *root set* — the set of storage roots
 * (parameters, constants, allocation sites, storage instantiations) its
 * value may occupy. Roots are seeded by `inplace_arg` DPS aliasing, by
 * tuple construction/projection, by rebinds and match_cast, and — after
 * memory planning — by `relax.memory.alloc_tensor(storage)` instantiation,
 * so the planner's storage-reuse decisions and the alias facts agree by
 * construction. Two vars may alias iff their root sets intersect.
 * Liveness is last-use over the linearized binding sequence (the SeqExpr
 * body counts as a final use).
 *
 * Consumers:
 *  - InplacePlanPass rewrites eligible call_tir / call_dps_library sites
 *    with `inplace_arg` when the candidate input is provably dead,
 *    shape/dtype-compatible with the output, and not may-aliased to any
 *    other live var (see inplace_plan.cc);
 *  - VerifyAliasSafety lints every pass boundary in debug builds;
 *  - StaticMemoryPlan consults lastLiveIndex() instead of a private scan.
 */
#ifndef RELAX_PASSES_ALIAS_ANALYSIS_H_
#define RELAX_PASSES_ALIAS_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"
#include "ir/module.h"
#include "passes/pass.h"

namespace relax {
namespace passes {

/** One storage root: a distinct place a tensor value may live. */
struct AliasRoot
{
    enum class Kind : uint8_t {
        kParam,   //!< function parameter (weights, caches, inputs)
        kConst,   //!< embedded constant — never writable
        kFresh,   //!< allocation site (call output / builtin.alloc_tensor)
        kStorage, //!< a memory.alloc_storage chunk
    };

    Kind kind;
    /** Defining var (param var, binding var, or storage var). */
    const ir::VarNode* var = nullptr;
    /**
     * For kFresh roots created by `relax.memory.alloc_tensor(storage)`:
     * the root id of the backing storage. Two instantiations of one
     * storage get distinct kFresh roots (planned reuse is not aliasing —
     * their live ranges are disjoint by construction, which
     * VerifyAliasSafety checks), linked here for that check. -1 = none.
     */
    int storageRoot = -1;
    /** Binding index of the defining binding (params: 0). */
    size_t defIndex = 0;
};

/**
 * The forward transfer function of the analysis, usable incrementally:
 * feed params first, then each binding in order. InplacePlanPass drives
 * one AliasState by hand so rewrite decisions made at binding i are
 * reflected in the facts consulted at binding j > i.
 */
class AliasState
{
  public:
    /** Registers a function parameter as a root of its own. */
    void addParam(const ir::Var& param);

    /**
     * Applies one binding's transfer function. `binding_index` is the
     * position in the linearized sequence (used as root defIndex).
     */
    void bind(const ir::Binding& binding, size_t binding_index);

    /** Root ids of a var; empty for vars holding no tensor storage. */
    const std::vector<int>& rootsOf(const ir::VarNode* v) const;

    const AliasRoot& root(int id) const { return roots_[id]; }
    size_t numRoots() const { return roots_.size(); }

    /** True iff the two vars' root sets intersect. */
    bool mayAlias(const ir::VarNode* a, const ir::VarNode* b) const;

    /** All vars (defined so far) whose root set contains `root_id`. */
    const std::vector<const ir::VarNode*>& holdersOf(int root_id) const;

    /** Binding index defining `v` (params and unknown vars: 0). */
    size_t defIndexOf(const ir::VarNode* v) const;

  private:
    friend class AliasLivenessAnalysis;

    int newRoot(AliasRoot::Kind kind, const ir::VarNode* var,
                size_t def_index, int storage_root = -1);
    void assignRoots(const ir::VarNode* v, std::vector<int> roots);
    std::vector<int> rootsOfExpr(const ir::Expr& expr, size_t index);

    std::vector<AliasRoot> roots_;
    std::unordered_map<const ir::VarNode*, std::vector<int>> varRoots_;
    std::unordered_map<const ir::VarNode*, size_t> defIndex_;
    /** Per-var root sets of tuple fields, for precise TupleGetItem. */
    std::unordered_map<const ir::VarNode*, std::vector<std::vector<int>>>
        tupleFieldRoots_;
    std::vector<std::vector<const ir::VarNode*>> holders_;
};

/**
 * Whole-function analysis: linearizes the blocks of a SeqExpr-bodied
 * function, runs AliasState over every binding, and computes last-use
 * liveness. Index space: binding i is the i-th binding across all blocks
 * in order; the SeqExpr body (function result) uses vars at index
 * bodyIndex() == number of bindings.
 */
class AliasLivenessAnalysis
{
  public:
    explicit AliasLivenessAnalysis(const ir::Function& func);

    const std::vector<const ir::Binding*>& bindings() const
    {
        return bindings_;
    }
    size_t bodyIndex() const { return bindings_.size(); }

    const AliasState& state() const { return state_; }

    /**
     * Last index at which `v` itself appears in a binding value or the
     * body; kNeverUsed when it has no uses.
     */
    size_t lastDirectUse(const ir::VarNode* v) const;

    /**
     * Last index at which `v` appears in a binding value other than a
     * pure rebind `u = v` (rebinds forward liveness to `u`, whose own
     * uses are accounted separately); kNeverUsed when none.
     */
    size_t lastNonRebindUse(const ir::VarNode* v) const;

    /**
     * Last index at which the storage of `v` may still be read through
     * any alias: max lastDirectUse over every var sharing a root with
     * `v`. This is the liveness the memory planner consumes — it keeps a
     * storage alive while any in-place kernel output chained onto it is
     * still in use.
     */
    size_t lastLiveIndex(const ir::VarNode* v) const;

    /** Max lastDirectUse over all vars holding `root_id`. */
    size_t rootLastLive(int root_id) const;

    static constexpr size_t kNeverUsed = (size_t)-1;

  private:
    std::vector<const ir::Binding*> bindings_;
    AliasState state_;
    std::unordered_map<const ir::VarNode*, size_t> lastUse_;
    std::unordered_map<const ir::VarNode*, size_t> lastNonRebindUse_;
    std::vector<size_t> rootLastLive_;
};

/**
 * Resolves a call's in-place facts regardless of lowering stage:
 * call_tir / call_dps_library (inputs = args[1..n-num_sym_args]) and
 * relax.vm.kernel_call (inputs per the num_inputs attr). Returns the
 * aliased input var, or null when the call carries no inplace_arg.
 */
const ir::VarNode* inplaceTargetOf(const ir::Expr& value);

/**
 * The library in-place contract: which argument (if any) of a simulated
 * library kernel may be written through by its DPS output. Mirrors
 * vm/libraries.cc: kv.append_ragged scatters fresh tokens into its pool
 * argument and never reads slots it did not write.
 */
int libraryInplaceArg(const std::string& callee);

/**
 * Rewrites eligible call_tir / call_dps_library sites with `inplace_arg`
 * (see inplace_plan.cc for the eligibility proof obligations). Annotates
 * each function with "inplace.rewrites" (count) and "inplace.callees"
 * (';'-joined callee names of the rewritten sites).
 */
Pass inplacePlanPass();

/**
 * Lints the module against the aliasing contract (DESIGN.md §9): a var
 * whose storage was reused while live, an in-place write whose target is
 * read afterwards through a stale var, or two in-place writes racing on
 * one storage all raise IRError. Stage-tolerant: runs on any module from
 * frontend output to the fully planned form.
 */
void verifyAliasSafety(const ir::IRModulePtr& module);

/** True when pipelines should lint every pass boundary: debug builds by
 *  default; RELAX_VERIFY_ALIAS=1/0 overrides either way. */
bool aliasVerifierEnabled();

/** Aggregated memory-planning outcome across a planned module. */
struct MemoryPlanReport
{
    int64_t storagesAllocated = 0;
    int64_t bytesAllocated = 0; //!< sum of static storage upper bounds
    int64_t reuseHits = 0;      //!< allocations served by a free storage
    int64_t bytesReused = 0;    //!< bytes of those reuse hits
    int64_t inplaceWrites = 0;  //!< kernel calls writing through an input
};

/** The "planned.*" / "inplace.*" attrs the passes leave on function
 *  `name`; zero when it was not planned or does not exist. */
MemoryPlanReport memoryPlanReport(const ir::IRModulePtr& module,
                                  const std::string& name);

/** The per-function report summed over every function of `module`. */
MemoryPlanReport memoryPlanReport(const ir::IRModulePtr& module);

} // namespace passes
} // namespace relax

#endif // RELAX_PASSES_ALIAS_ANALYSIS_H_
