/**
 * @file
 * Implements the alias/liveness analysis of alias_analysis.h and the
 * VerifyAliasSafety lint. The in-place planning pass that consumes the
 * facts lives in inplace_plan.cc.
 */
#include "passes/alias_analysis.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "ir/utils.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

/** Number of trailing symbolic args of a call_tir/call_dps_library or
 *  kernel_call, from its num_sym_args attr. */
int64_t
numSymArgsOf(const CallNode* call)
{
    auto it = call->attrs.find("num_sym_args");
    return it == call->attrs.end() ? 0 : std::get<int64_t>(it->second);
}

int64_t
intAttrOr(const CallNode* call, const char* name, int64_t fallback)
{
    auto it = call->attrs.find(name);
    return it == call->attrs.end() ? fallback
                                   : std::get<int64_t>(it->second);
}

/** The graph-level input exprs of a DPS call at any lowering stage. */
std::vector<Expr>
dpsInputsOf(const CallNode* call, bool is_kernel_call)
{
    int64_t num_sym = numSymArgsOf(call);
    if (is_kernel_call) {
        int64_t num_inputs = intAttrOr(call, "num_inputs", 0);
        return {call->args.begin() + 1,
                call->args.begin() + 1 + num_inputs};
    }
    return {call->args.begin() + 1, call->args.end() - num_sym};
}

} // namespace

// ---------------------------------------------------------------------------
// AliasState: the forward transfer function
// ---------------------------------------------------------------------------

int
AliasState::newRoot(AliasRoot::Kind kind, const VarNode* var,
                    size_t def_index, int storage_root)
{
    AliasRoot root;
    root.kind = kind;
    root.var = var;
    root.defIndex = def_index;
    root.storageRoot = storage_root;
    roots_.push_back(root);
    holders_.emplace_back();
    return (int)roots_.size() - 1;
}

void
AliasState::assignRoots(const VarNode* v, std::vector<int> roots)
{
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    for (int id : roots) holders_[id].push_back(v);
    varRoots_[v] = std::move(roots);
}

void
AliasState::addParam(const Var& param)
{
    // Every parameter is a distinct root — tensor or not; non-tensor
    // params (shapes, scalars) simply never intersect anything useful.
    assignRoots(param.get(),
                {newRoot(AliasRoot::Kind::kParam, param.get(), 0)});
}

const std::vector<int>&
AliasState::rootsOf(const VarNode* v) const
{
    static const std::vector<int> kEmpty;
    auto it = varRoots_.find(v);
    return it == varRoots_.end() ? kEmpty : it->second;
}

bool
AliasState::mayAlias(const VarNode* a, const VarNode* b) const
{
    const auto& ra = rootsOf(a);
    const auto& rb = rootsOf(b);
    // Sorted-set intersection test.
    size_t i = 0, j = 0;
    while (i < ra.size() && j < rb.size()) {
        if (ra[i] == rb[j]) return true;
        if (ra[i] < rb[j]) ++i;
        else ++j;
    }
    return false;
}

const std::vector<const VarNode*>&
AliasState::holdersOf(int root_id) const
{
    return holders_[root_id];
}

size_t
AliasState::defIndexOf(const VarNode* v) const
{
    auto it = defIndex_.find(v);
    return it == defIndex_.end() ? 0 : it->second;
}

std::vector<int>
AliasState::rootsOfExpr(const Expr& expr, size_t index)
{
    switch (expr->kind()) {
      case RxKind::kVar: {
          return rootsOf(static_cast<const VarNode*>(expr.get()));
      }
      case RxKind::kConstant: {
          // One root per constant occurrence is enough: constants are
          // never written, and the kConst kind pins them non-rewritable.
          return {newRoot(AliasRoot::Kind::kConst, nullptr, index)};
      }
      case RxKind::kTuple: {
          std::vector<int> all;
          for (const auto& field :
               static_cast<const TupleNode*>(expr.get())->fields) {
              std::vector<int> fr = rootsOfExpr(field, index);
              all.insert(all.end(), fr.begin(), fr.end());
          }
          return all;
      }
      default:
          return {};
    }
}

void
AliasState::bind(const Binding& binding, size_t index)
{
    const Expr& value = binding.value;
    const VarNode* var = binding.var.get();
    defIndex_[var] = index;
    switch (value->kind()) {
      case RxKind::kVar:
      case RxKind::kConstant: {
          // Rebind / match_cast / constant binding: same storage.
          assignRoots(var, rootsOfExpr(value, index));
          if (value->kind() == RxKind::kVar) {
              auto fields = tupleFieldRoots_.find(
                  static_cast<const VarNode*>(value.get()));
              if (fields != tupleFieldRoots_.end()) {
                  tupleFieldRoots_[var] = fields->second;
              }
          }
          return;
      }
      case RxKind::kTuple: {
          // Union of the fields, with per-field precision retained for
          // TupleGetItem projections.
          const auto* tuple = static_cast<const TupleNode*>(value.get());
          std::vector<std::vector<int>> per_field;
          std::vector<int> all;
          per_field.reserve(tuple->fields.size());
          for (const auto& field : tuple->fields) {
              per_field.push_back(rootsOfExpr(field, index));
              all.insert(all.end(), per_field.back().begin(),
                         per_field.back().end());
          }
          tupleFieldRoots_[var] = std::move(per_field);
          assignRoots(var, std::move(all));
          return;
      }
      case RxKind::kTupleGetItem: {
          const auto* get =
              static_cast<const TupleGetItemNode*>(value.get());
          if (get->tuple->kind() == RxKind::kVar) {
              const auto* tv =
                  static_cast<const VarNode*>(get->tuple.get());
              auto fields = tupleFieldRoots_.find(tv);
              if (fields != tupleFieldRoots_.end() && get->index >= 0 &&
                  (size_t)get->index < fields->second.size()) {
                  assignRoots(var, fields->second[get->index]);
                  return;
              }
              // No per-field facts: fall back to the whole tuple's set.
              assignRoots(var, rootsOf(tv));
              return;
          }
          assignRoots(var, {});
          return;
      }
      case RxKind::kCall: {
          const auto* call = static_cast<const CallNode*>(value.get());
          bool is_kernel = isOpCall(value, "relax.vm.kernel_call");
          bool is_dps = isOpCall(value, "relax.call_tir") ||
                        isOpCall(value, "relax.call_dps_library");
          if (is_dps || is_kernel) {
              int64_t inplace = intAttrOr(call, "inplace_arg", -1);
              if (inplace >= 0) {
                  std::vector<Expr> inputs =
                      dpsInputsOf(call, is_kernel);
                  if ((size_t)inplace < inputs.size() &&
                      inputs[inplace]->kind() == RxKind::kVar) {
                      // DPS aliasing: the output var IS the input's
                      // storage. (For kernel_call the binding var is the
                      // discarded "_", but propagating is harmless.)
                      assignRoots(var,
                                  rootsOf(static_cast<const VarNode*>(
                                      inputs[inplace].get())));
                      return;
                  }
              }
          }
          if (isOpCall(value, "relax.memory.alloc_tensor") &&
              !call->args.empty() &&
              call->args[0]->kind() == RxKind::kVar) {
              // Instantiation inside a planned storage: fresh root linked
              // to the storage root so VerifyAliasSafety can check that
              // reuse never overlaps a live range.
              const auto& sroots = rootsOf(
                  static_cast<const VarNode*>(call->args[0].get()));
              int storage_root = sroots.empty() ? -1 : sroots[0];
              assignRoots(var, {newRoot(AliasRoot::Kind::kFresh, var,
                                        index, storage_root)});
              return;
          }
          if (isOpCall(value, "relax.memory.alloc_storage")) {
              assignRoots(var, {newRoot(AliasRoot::Kind::kStorage, var,
                                        index)});
              return;
          }
          // Any other call (op call, builtin.alloc_tensor, subgraph call,
          // packed call, non-inplace DPS): a fresh allocation. Calls
          // returning tuples get per-field fresh roots.
          size_t num_outs =
              is_dps ? std::max<size_t>(call->sinfoArgs.size(), 1) : 1;
          if (num_outs > 1) {
              std::vector<std::vector<int>> per_field;
              std::vector<int> all;
              for (size_t o = 0; o < num_outs; ++o) {
                  per_field.push_back({newRoot(AliasRoot::Kind::kFresh,
                                               var, index)});
                  all.push_back(per_field.back()[0]);
              }
              tupleFieldRoots_[var] = std::move(per_field);
              assignRoots(var, std::move(all));
          } else {
              assignRoots(
                  var, {newRoot(AliasRoot::Kind::kFresh, var, index)});
          }
          return;
      }
      default:
          // Shape exprs, prim values, nested seq/if results: no tensor
          // storage tracked.
          assignRoots(var, {});
          return;
    }
}

// ---------------------------------------------------------------------------
// AliasLivenessAnalysis
// ---------------------------------------------------------------------------

AliasLivenessAnalysis::AliasLivenessAnalysis(const Function& func)
{
    const auto* seq = static_cast<const SeqExprNode*>(func->body.get());
    RELAX_ICHECK(func->body->kind() == RxKind::kSeqExpr)
        << "alias analysis expects a SeqExpr-bodied function";
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            bindings_.push_back(&binding);
        }
    }

    for (const auto& param : func->params) state_.addParam(param);
    for (size_t i = 0; i < bindings_.size(); ++i) {
        state_.bind(*bindings_[i], i);
    }

    // Last-use liveness over the linearized sequence; the body is the
    // final use site at index bindings_.size().
    for (size_t i = 0; i < bindings_.size(); ++i) {
        std::unordered_set<const VarNode*> used;
        collectVarUses(bindings_[i]->value, &used);
        bool is_rebind = bindings_[i]->value->kind() == RxKind::kVar;
        for (const auto* v : used) {
            lastUse_[v] = i;
            if (!is_rebind) lastNonRebindUse_[v] = i;
        }
    }
    {
        std::unordered_set<const VarNode*> used;
        collectVarUses(seq->body, &used);
        for (const auto* v : used) {
            lastUse_[v] = bindings_.size();
            lastNonRebindUse_[v] = bindings_.size();
        }
    }

    rootLastLive_.assign(state_.numRoots(), kNeverUsed);
    for (const auto& [v, last] : lastUse_) {
        for (int id : state_.rootsOf(v)) {
            if (rootLastLive_[id] == kNeverUsed ||
                rootLastLive_[id] < last) {
                rootLastLive_[id] = last;
            }
        }
    }
}

size_t
AliasLivenessAnalysis::lastDirectUse(const VarNode* v) const
{
    auto it = lastUse_.find(v);
    return it == lastUse_.end() ? kNeverUsed : it->second;
}

size_t
AliasLivenessAnalysis::lastNonRebindUse(const VarNode* v) const
{
    auto it = lastNonRebindUse_.find(v);
    return it == lastNonRebindUse_.end() ? kNeverUsed : it->second;
}

size_t
AliasLivenessAnalysis::rootLastLive(int root_id) const
{
    return rootLastLive_[root_id];
}

size_t
AliasLivenessAnalysis::lastLiveIndex(const VarNode* v) const
{
    size_t last = lastDirectUse(v);
    if (last == kNeverUsed) last = 0;
    for (int id : state_.rootsOf(v)) {
        size_t root_last = rootLastLive_[id];
        if (root_last != kNeverUsed) last = std::max(last, root_last);
    }
    return last;
}

// ---------------------------------------------------------------------------
// Shared call introspection
// ---------------------------------------------------------------------------

const VarNode*
inplaceTargetOf(const Expr& value)
{
    if (value->kind() != RxKind::kCall) return nullptr;
    bool is_kernel = isOpCall(value, "relax.vm.kernel_call");
    bool is_dps = isOpCall(value, "relax.call_tir") ||
                  isOpCall(value, "relax.call_dps_library");
    if (!is_kernel && !is_dps) return nullptr;
    const auto* call = static_cast<const CallNode*>(value.get());
    int64_t inplace = intAttrOr(call, "inplace_arg", -1);
    if (inplace < 0) return nullptr;
    std::vector<Expr> inputs = dpsInputsOf(call, is_kernel);
    if ((size_t)inplace >= inputs.size() ||
        inputs[inplace]->kind() != RxKind::kVar) {
        return nullptr;
    }
    return static_cast<const VarNode*>(inputs[inplace].get());
}

int
libraryInplaceArg(const std::string& callee)
{
    // The only library kernel with in-place DPS semantics: the ragged
    // page-pool append scatters this call's fresh tokens into the pool
    // argument and reads nothing else from it (vm/libraries.cc).
    if (callee == "kv.append_ragged") return 0;
    return -1;
}

// ---------------------------------------------------------------------------
// VerifyAliasSafety
// ---------------------------------------------------------------------------

bool
aliasVerifierEnabled()
{
    const char* env = std::getenv("RELAX_VERIFY_ALIAS");
    if (env && *env) return std::strcmp(env, "0") != 0;
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

namespace {

void
verifyFunction(const std::string& fn_name, const Function& func)
{
    if (!func->body || func->body->kind() != RxKind::kSeqExpr) return;
    AliasLivenessAnalysis analysis(func);
    const auto& state = analysis.state();
    const auto& bindings = analysis.bindings();

    for (size_t i = 0; i < bindings.size(); ++i) {
        const VarNode* target = inplaceTargetOf(bindings[i]->value);
        if (!target) continue;
        // Rule 1: after an in-place write at i, the overwritten value
        // must be unreachable. Every var holding one of the target's
        // roots and defined at or before i may have no real
        // (non-rebind) use past i — later readers must go through the
        // rewritten output chain, which carries the new value. Vars
        // defined after i alias the target only via that chain (reaching
        // the old value would require using an old var, caught here).
        for (int root : state.rootsOf(target)) {
            for (const VarNode* holder : state.holdersOf(root)) {
                if (holder == bindings[i]->var.get()) continue;
                // Vars defined after the write alias it only through the
                // rewritten output chain, which carries the new value.
                if (state.defIndexOf(holder) > i) continue;
                size_t last = analysis.lastNonRebindUse(holder);
                if (last != AliasLivenessAnalysis::kNeverUsed &&
                    last > i) {
                    const VarNode* other =
                        last < bindings.size()
                            ? inplaceTargetOf(bindings[last]->value)
                            : nullptr;
                    RELAX_THROW(IRError)
                        << "alias safety violation in '" << fn_name
                        << "': binding #" << i
                        << " writes in place through '" << target->name
                        << "' but aliased var '" << holder->name
                        << "' is still "
                        << (other == holder
                                ? "written in place (double in-place "
                                  "write into one storage)"
                                : "read")
                        << " at binding #" << last;
                }
            }
        }
    }

    // Rule 2: planned storage reuse must never overlap a live range.
    // Instantiations of one storage, ordered by definition, must each
    // die (through every alias) before the next one is created.
    std::unordered_map<int, std::vector<int>> by_storage;
    for (int id = 0; id < (int)state.numRoots(); ++id) {
        if (state.root(id).storageRoot >= 0) {
            by_storage[state.root(id).storageRoot].push_back(id);
        }
    }
    for (auto& [storage, instances] : by_storage) {
        std::sort(instances.begin(), instances.end(),
                  [&](int a, int b) {
                      return state.root(a).defIndex <
                             state.root(b).defIndex;
                  });
        for (size_t a = 0; a + 1 < instances.size(); ++a) {
            size_t live_until = analysis.rootLastLive(instances[a]);
            if (live_until == AliasLivenessAnalysis::kNeverUsed) continue;
            for (size_t b = a + 1; b < instances.size(); ++b) {
                size_t next_def = state.root(instances[b]).defIndex;
                if (next_def <= live_until) {
                    RELAX_THROW(IRError)
                        << "alias safety violation in '" << fn_name
                        << "': storage '"
                        << state.root(storage).var->name
                        << "' is re-instantiated at binding #" << next_def
                        << " ('" << state.root(instances[b]).var->name
                        << "') while tensor '"
                        << state.root(instances[a]).var->name
                        << "' is live until binding #" << live_until;
                }
            }
        }
    }
}

} // namespace

void
verifyAliasSafety(const IRModulePtr& module)
{
    for (const auto& [name, func] : module->functions()) {
        verifyFunction(name, func);
    }
}

// ---------------------------------------------------------------------------
// MemoryPlanReport
// ---------------------------------------------------------------------------

MemoryPlanReport
memoryPlanReport(const IRModulePtr& module, const std::string& name)
{
    MemoryPlanReport report;
    Function func = module->getFunction(name);
    if (!func) return report;
    auto attr_int = [&func](const char* attr) {
        auto it = func->attrs.find(attr);
        return it == func->attrs.end() ? (int64_t)0
                                       : (int64_t)std::stoll(it->second);
    };
    report.storagesAllocated = attr_int("planned.num_storages");
    report.bytesAllocated = attr_int("planned.total_bytes");
    report.reuseHits = attr_int("planned.reuse_hits");
    report.bytesReused = attr_int("planned.bytes_reused");
    report.inplaceWrites = attr_int("inplace.rewrites");
    return report;
}

MemoryPlanReport
memoryPlanReport(const IRModulePtr& module)
{
    MemoryPlanReport total;
    for (const auto& entry : module->functions()) {
        MemoryPlanReport one = memoryPlanReport(module, entry.first);
        total.storagesAllocated += one.storagesAllocated;
        total.bytesAllocated += one.bytesAllocated;
        total.reuseHits += one.reuseHits;
        total.bytesReused += one.bytesReused;
        total.inplaceWrites += one.inplaceWrites;
    }
    return total;
}

} // namespace passes
} // namespace relax
