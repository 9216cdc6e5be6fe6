/**
 * @file
 * The virtual machine: the per-instruction executors (MatchShape /
 * AllocStorage / AllocTensor / KernelCall / PackedCall) and the pricing
 * of generated kernels on the device roofline. Every symbolic value is
 * read from the slot frame through the function's shape program, and a
 * kernel call binds the kernel's variables by its entry's bind steps, so
 * no instruction walks an expression or builds a binding map. Data mode
 * runs every DPS kernel, generated or library, through its entry's
 * lowered program.
 */
#include "vm/vm.h"
#include <cstdlib>

#include <algorithm>
#include <atomic>

#include "device/interconnect.h"
#include "tir/analysis.h"
#include "tir/interpreter.h"

namespace relax {
namespace vm {

namespace {

/** Cumulative count of instrumented in-place kernel verifications. */
std::atomic<int64_t> g_aliasChecks{0};

/** RELAX_ALIAS_CHECK=1 turns on the differential in-place verifier. */
bool
aliasCheckEnabled()
{
    const char* env = getenv("RELAX_ALIAS_CHECK");
    return env && std::string(env) != "0";
}

/**
 * Differential in-place verification (the ASPIS-style instrumented
 * check): the aliased run already executed on `aliased`; `ref` holds
 * deep copies taken before it, on which the caller re-ran the kernel
 * with NO aliasing (the copied output buffer is distinct from the
 * copied input — copy-in/copy-out semantics). Every output, and every
 * input that does not share storage with the aliased input, must now be
 * bit-identical across the two runs: outputs prove the in-place rewrite
 * did not change results, inputs prove the kernel wrote nothing it does
 * not own.
 */
void
diffAliasedRun(const Instr& instr, const std::vector<NDArray>& aliased,
               const std::vector<NDArray>& ref)
{
    const NDArray& target =
        aliased[std::get<int64_t>(instr.attrs->at("inplace_arg"))];
    for (size_t i = 0; i < aliased.size(); ++i) {
        if (!aliased[i].hasData() || !ref[i].hasData()) continue;
        // An input sharing storage with the aliased input (that input
        // itself, or the same tensor passed twice, as in add(x, x)) was
        // overwritten in the aliased run only; its pre-state copy
        // legitimately differs.
        if (i < (size_t)instr.numInputs && target.hasData() &&
            &aliased[i].data() == &target.data()) {
            continue;
        }
        if (aliased[i].data() != ref[i].data()) {
            RELAX_THROW(RuntimeError)
                << "RELAX_ALIAS_CHECK: '" << instr.callee << "' arg " << i
                << " diverges between the aliased run and the "
                << "copy-in/copy-out reference"
                << (i >= (size_t)instr.numInputs
                        ? " (in-place output corrupted)"
                        : " (kernel wrote a non-aliased input)");
        }
    }
    g_aliasChecks.fetch_add(1, std::memory_order_relaxed);
}

/** Deep copies of every data-bearing argument, for the reference run. */
std::vector<NDArray>
copyArgsForReference(const std::vector<NDArray>& args)
{
    std::vector<NDArray> copies;
    copies.reserve(args.size());
    for (const auto& arg : args) {
        copies.push_back(arg.hasData()
                             ? NDArray::fromVector(arg.shape(),
                                                   arg.dtype(), arg.data())
                             : arg);
    }
    return copies;
}

} // namespace

int64_t
aliasChecksPerformed()
{
    return g_aliasChecks.load(std::memory_order_relaxed);
}

namespace {

/** Per-invocation execution state. */
struct Frame
{
    std::vector<Value> regs;
    /** The shape program's registers, whose slots hold the live symbolic
     *  values: the host shape tensor (§4.7). */
    std::vector<int64_t> live;
    /**
     * The same registers inside a bucketed graph region, with every
     * symbol bound before the region rounded up to its bucket ceiling.
     * Kernel *pricing* reads these (the captured graph launches padded
     * kernels); data-mode compute always runs at the real shapes, which
     * is what keeps replay bit-identical. A slot is padded while its two
     * values differ.
     */
    std::vector<int64_t> padded;
    bool padding = false; //!< some slot is padded
    /** Pool allocations owned by this call (returned to pool at exit). */
    std::vector<int64_t> pooledBytes;
};

/**
 * Bucket ceiling of a symbolic value: the next multiple of `block`, or
 * the next power of two when that is smaller. Large dims (context
 * lengths) land on block boundaries (padding waste < one block); small
 * dims (batch sizes below the block) land on power-of-two classes
 * (padding waste < 2x) instead of all inflating to one block.
 */
int64_t
bucketCeiling(int64_t value, int64_t block)
{
    int64_t blocked = (value + block - 1) / block * block;
    int64_t pow2 = 1;
    while (pow2 < value) pow2 *= 2;
    return std::min(blocked, pow2);
}

NDArray&
asTensorValue(Value& value, const char* what)
{
    NDArray* array = std::get_if<NDArray>(&value);
    if (!array) RELAX_THROW(RuntimeError) << what << ": expected a tensor";
    return *array;
}

/** Throws the ShapeError evalInt throws for an expression it cannot
 *  evaluate. */
[[noreturn, gnu::noinline, gnu::cold]] void
unevaluable(const PrimExpr& expr)
{
    RELAX_THROW(ShapeError)
        << "cannot evaluate symbolic expression " << relax::toString(expr)
        << " (unbound variable or non-integer node)";
}

/** Expression `id` of `program` over `regs`, which fails as evalInt of
 *  its `source` would. */
int64_t
evalShape(const ShapeProgram& program, int32_t id, int64_t* regs,
          const PrimExpr& source)
{
    std::optional<int64_t> value = program.tryEval(id, regs);
    if (!value) unevaluable(source);
    return *value;
}

/**
 * A library site's shapes for its reference program: each annotated dim
 * that is a variable or constant, else (a composite or unannotated dim) a
 * fresh variable, which the call binds from the tensor.
 */
std::vector<std::vector<PrimExpr>>
siteShapes(const Instr& instr, const std::vector<const NDArray*>& args)
{
    std::vector<std::vector<PrimExpr>> shapes(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        const std::vector<ShapeExpr>& site = instr.argShapes[i];
        for (size_t d = 0; d < args[i]->shape().size(); ++d) {
            const PrimExpr* dim = d < site.size() ? &site[d].source : nullptr;
            bool keep = dim && ((*dim)->kind() == ExprKind::kVar ||
                                asIntImm(*dim));
            shapes[i].push_back(keep ? *dim
                                     : var("d" + std::to_string(i) + "_" +
                                           std::to_string(d)));
        }
    }
    return shapes;
}

/** Compiles a generated kernel's roofline cost into its shape program. */
void
compileCost(KernelEntry& kernel)
{
    tir::TensorProgramCost cost = tir::analyzeCost(kernel.func);
    kernel.flops = cost.flops;
    kernel.bytes = cost.bytes;
    ShapeProgram::Compiler compiler(kernel.shapes);
    kernel.flopsId = compiler.compile(cost.flops);
    kernel.bytesId = compiler.compile(cost.bytes);
    const std::vector<PrimExpr>& out = kernel.func->params.back()->shape;
    PrimExpr rows = intImm(1);
    for (size_t d = 0; d + 1 < out.size(); ++d) rows = mul(rows, out[d]);
    kernel.rowsId = compiler.compile(rows);
    auto attr = kernel.func->attrs.find(tir::kComputePatternAttr);
    kernel.kind = attr != kernel.func->attrs.end()
                      ? tir::patternKindFromName(attr->second)
                      : tir::analyzePatternKind(kernel.func);
}

/** A generated kernel's cost over entry-variable registers `regs`. */
device::KernelCost
generatedKernelCost(const KernelEntry& kernel, int64_t* regs,
                    const device::DeviceSpec& spec)
{
    const ShapeProgram& program = kernel.shapes;
    device::KernelCost cost;
    cost.flops = (double)evalShape(program, kernel.flopsId, regs, kernel.flops);
    cost.bytes = (double)evalShape(program, kernel.bytesId, regs, kernel.bytes);
    // Fused kernels lose their single-op classification; detect a matmul
    // core by arithmetic intensity instead.
    bool has_fma = kernel.kind == tir::PatternKind::kOutputEwiseFusible ||
                   (cost.bytes > 0 && cost.flops / cost.bytes > 16.0);
    if (!has_fma) {
        cost.efficiency = spec.genElemwiseEfficiency;
        return cost;
    }
    // Matrix-vector (single output row) uses the tuned gemv schedule. The
    // call's bind steps checked that every output dim evaluates.
    std::optional<int64_t> rows = program.tryEval(kernel.rowsId, regs);
    RELAX_ICHECK(rows) << "unevaluable output dims";
    cost.efficiency =
        *rows <= 1 ? spec.genGemvEfficiency : spec.genGemmEfficiency;
    return cost;
}

} // namespace

struct Executor
{
    ExecutablePtr exec;
    std::shared_ptr<device::SimDevice> device_;
    bool dataMode_;
    std::map<std::pair<std::string, size_t>, StoragePtr>& staticStorages_;
    std::map<int64_t, int>& freePool_;
    std::string graphKeyspace_;

    // Trace state for the currently-open execution-graph region (regions
    // never nest): its span is emitted at kGraphEnd, inside the call's
    // frame span in the vm lane.
    double graphStartTs_ = 0.0;
    bool graphReplay_ = false;
    std::string graphSignature_{};
    int64_t openGraphId_ = -1;
    /** The kRet value, once executed. */
    Value result_{};

    // Per-call scratch, reused across kernel calls: the call's tensors,
    // its symbolic arguments, the kernel's registers (entry variables
    // first), their values for data mode, and a library call's priced
    // views with their padded dims.
    std::vector<const NDArray*> args_{};
    std::vector<int64_t> symArgs_{};
    std::vector<int64_t> kernelRegs_{};
    std::vector<int64_t> entry_{};
    std::vector<PricedArg> priced_{};
    std::vector<int64_t> pricedDims_{};

    /** Executes one instruction against the frame. */
    void step(const Instr& instr, Frame& frame, const VMFunction& fn);

    void execMatchShape(const Instr& instr, Frame& frame,
                        const VMFunction& fn);
    void execAllocStorage(const Instr& instr, Frame& frame,
                          const VMFunction& fn);
    void execAllocTensor(const Instr& instr, Frame& frame,
                         const VMFunction& fn);
    /** Takes `bytes` from the runtime pool for this frame's lifetime. */
    void allocPooled(int64_t bytes, Frame& frame);
    void execKernelCall(const Instr& instr, Frame& frame,
                        const VMFunction& fn);
    void execPackedCall(const Instr& instr, Frame& frame);
    /** Binds the kernel's entry variables into kernelRegs_ from args_ and
     *  symArgs_, with the checks and messages of tir::bindShapes. */
    void bindKernel(const KernelEntry& kernel);
    /** Views of args_ at the shapes a library call is priced at. */
    const std::vector<PricedArg>& pricedArgs(const Instr& instr,
                                             Frame& frame,
                                             const VMFunction& fn);
};

namespace {

/** Device counters at frame entry, for the RunStats deltas. */
struct CounterSnapshot
{
    double clockUs;
    int64_t kernelLaunches;
    int64_t totalAllocatedBytes;
    int64_t graphCaptures;
    int64_t graphReplays;
};

CounterSnapshot
snapshotCounters(device::SimDevice& device)
{
    return {device.clockUs(), device.kernelLaunches(),
            device.totalAllocatedBytes(), device.graphCaptures(),
            device.graphReplays()};
}

const VMFunction&
findFunction(const ExecutablePtr& exec, const std::string& name,
             size_t num_args)
{
    auto it = exec->functions.find(name);
    if (it == exec->functions.end()) {
        RELAX_THROW(RuntimeError) << "no such function: " << name;
    }
    if ((int)num_args != it->second.numParams) {
        RELAX_THROW(RuntimeError)
            << name << ": expected " << it->second.numParams
            << " arguments, got " << num_args;
    }
    return it->second;
}

/** Frame teardown: returns pool allocations, computes the RunStats
 *  deltas and emits the frame span. */
void
finishFrame(Frame& frame, const std::string& name,
            const CounterSnapshot& snap, device::SimDevice& device,
            std::map<int64_t, int>& free_pool, RunStats& last,
            GraphStats& graph)
{
    // Return this call's pool allocations (runtime allocator model).
    for (int64_t bytes : frame.pooledBytes) free_pool[bytes] += 1;

    last.latencyUs = device.clockUs() - snap.clockUs;
    last.kernelLaunches = device.kernelLaunches() - snap.kernelLaunches;
    last.bytesAllocated =
        device.totalAllocatedBytes() - snap.totalAllocatedBytes;
    last.graphCaptures = device.graphCaptures() - snap.graphCaptures;
    last.graphReplays = device.graphReplays() - snap.graphReplays;
    last.graphBegins = last.graphCaptures + last.graphReplays;
    graph.begins += last.graphBegins;
    graph.captures += last.graphCaptures;
    graph.replays += last.graphReplays;
    TraceRecorder& trace = device.trace();
    if (trace.enabled()) {
        trace.span(trace_lanes::kVm, trace_lanes::kFrames, name, "frame",
                   snap.clockUs, last.latencyUs,
                   {{"kernels", last.kernelLaunches},
                    {"graph_begins", last.graphBegins},
                    {"graph_replays", last.graphReplays}});
    }
}

/**
 * The lockstep collective rendezvous. Every shard has reached the same
 * `ccl.*` call site with its DPS out tensor allocated; the group prices
 * ONE ring collective (a barrier plus transfer time on every member). In
 * data mode the driver then materializes the semantics across the
 * shards: all_reduce left-folds the partial sums in rank order
 * (deterministic reassociation) and writes the total to every shard;
 * all_gather concatenates the shard-local chunks along the last dim
 * into every shard's out.
 */
void
lockstepCollective(const Instr& instr, device::DeviceGroup& group,
                   std::vector<Frame>& frames, bool data_mode)
{
    size_t n = frames.size();
    std::vector<NDArray*> ins(n);
    std::vector<NDArray*> outs(n);
    for (size_t s = 0; s < n; ++s) {
        ins[s] = &asTensorValue(frames[s].regs[instr.args[0]],
                                instr.callee.c_str());
        outs[s] = &asTensorValue(frames[s].regs[instr.args.back()],
                                 instr.callee.c_str());
    }
    double payload = (double)outs[0]->sizeBytes();
    bool reduce = instr.collective == Instr::Collective::kAllReduce;
    if (reduce) {
        group.allReduce(payload);
    } else {
        group.allGather(payload);
    }
    if (!data_mode) return;
    if (reduce) {
        std::vector<double> sum = ins[0]->data();
        for (size_t s = 1; s < n; ++s) {
            const std::vector<double>& part = ins[s]->data();
            for (size_t j = 0; j < sum.size(); ++j) sum[j] += part[j];
        }
        for (size_t s = 0; s < n; ++s) {
            std::copy(sum.begin(), sum.end(), outs[s]->data().begin());
        }
    } else {
        int64_t chunk = ins[0]->shape().back();
        int64_t full = outs[0]->shape().back();
        RELAX_ICHECK(chunk * (int64_t)n == full)
            << "all_gather: chunks do not tile the gathered dim";
        int64_t rows = outs[0]->numel() / full;
        for (size_t s = 0; s < n; ++s) {
            const std::vector<double>& src = ins[s]->data();
            int64_t offset = (int64_t)s * chunk;
            for (int64_t r = 0; r < rows; ++r) {
                for (int64_t j = 0; j < chunk; ++j) {
                    double value = src[r * chunk + j];
                    for (size_t t = 0; t < n; ++t) {
                        outs[t]->data()[r * full + offset + j] = value;
                    }
                }
            }
        }
    }
}

} // namespace

StoragePtr
VirtualMachine::allocPersistentStorage(int64_t bytes)
{
    RELAX_ICHECK(bytes >= 0) << "negative storage size";
    device_->alloc(bytes);
    auto storage = std::make_shared<Storage>();
    storage->bytes = bytes;
    storage->persistent = true;
    return storage;
}

void
VirtualMachine::releasePersistentStorage(const StoragePtr& storage)
{
    if (!storage || storage->bytes == 0) return;
    RELAX_ICHECK(storage->persistent)
        << "releasePersistentStorage: not a persistent chunk";
    device_->free(storage->bytes);
    storage->bytes = 0; // guards against double release
}

Value
VirtualMachine::invoke(const std::string& name,
                       const std::vector<Value>& args)
{
    const std::vector<Value>* self_args = &args;
    return std::move(run(this, &self_args, 1, nullptr, name)[0]);
}

std::vector<Value>
VirtualMachine::invokeLockstep(std::vector<VirtualMachine>& shards,
                               device::DeviceGroup& group,
                               const std::string& name,
                               const std::vector<std::vector<Value>>& args)
{
    RELAX_ICHECK(!shards.empty() && args.size() == shards.size())
        << "lockstep: one argument list per shard";
    RELAX_ICHECK((int)shards.size() == group.size())
        << "lockstep: shard count must match the device group";
    std::vector<const std::vector<Value>*> arg_lists;
    arg_lists.reserve(args.size());
    for (const auto& list : args) arg_lists.push_back(&list);
    return run(shards.data(), arg_lists.data(), shards.size(), &group,
               name);
}

std::vector<Value>
VirtualMachine::run(VirtualMachine* shards,
                    const std::vector<Value>* const* args, size_t n,
                    device::DeviceGroup* group, const std::string& name)
{
    const ExecutablePtr& exec = shards[0].exec_;
    const VMFunction& func = findFunction(exec, name, args[0]->size());

    std::vector<Executor> executors;
    executors.reserve(n);
    std::vector<Frame> frames(n);
    std::vector<CounterSnapshot> snaps;
    snaps.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        VirtualMachine& shard = shards[s];
        RELAX_ICHECK(shard.exec_ == exec)
            << "lockstep shards must share one executable";
        if (s > 0) findFunction(exec, name, args[s]->size()); // arity
        executors.push_back(Executor{shard.exec_, shard.device_,
                                     shard.dataMode_,
                                     shard.staticStorages_,
                                     shard.freePool_,
                                     shard.graphKeyspace_});
        frames[s].regs.resize(func.numRegs);
        std::copy(args[s]->begin(), args[s]->end(), frames[s].regs.begin());
        frames[s].live = func.shapes.registers();
        frames[s].padded = frames[s].live;
        snaps.push_back(snapshotCounters(*shard.device_));
    }

    // Instruction-outer, shard-inner: every shard executes instruction k
    // before any shard executes k+1, so all shards reach each `ccl.*`
    // site together and the group prices it as one collective.
    for (const Instr& instr : func.instrs) {
        if (instr.collective != Instr::Collective::kNone) {
            if (!group) {
                RELAX_THROW(RuntimeError)
                    << name << ": collective '" << instr.callee
                    << "' needs a device group; run tensor-parallel "
                       "executables through invokeLockstep";
            }
            lockstepCollective(instr, *group, frames, shards[0].dataMode_);
            continue;
        }
        for (size_t s = 0; s < n; ++s) {
            executors[s].step(instr, frames[s], func);
        }
    }

    std::vector<Value> results;
    results.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        VirtualMachine& shard = shards[s];
        finishFrame(frames[s], name, snaps[s], *shard.device_,
                    shard.freePool_, shard.lastStats_, shard.graphStats_);
        results.push_back(std::move(executors[s].result_));
    }
    return results;
}

void
Executor::step(const Instr& instr, Frame& frame, const VMFunction& fn)
{
    TraceRecorder& trace = device_->trace();
    switch (instr.op) {
      case Instr::Op::kMatchShape:
        execMatchShape(instr, frame, fn);
        break;
      case Instr::Op::kAllocStorage:
        execAllocStorage(instr, frame, fn);
        break;
      case Instr::Op::kAllocTensor:
        execAllocTensor(instr, frame, fn);
        break;
      case Instr::Op::kKernelCall:
        execKernelCall(instr, frame, fn);
        break;
      case Instr::Op::kPackedCall:
        execPackedCall(instr, frame);
        break;
      case Instr::Op::kGraphBegin: {
        // Key the captured graph by the bucketed shape signature:
        // each symbolic value is rounded up to its bucket ceiling,
        // so every shape in a bucket maps to one graph (captured at
        // the ceiling shape, launched padded/masked). The symbols come
        // name-sorted for a deterministic signature (symbolic names
        // are unique within a function: b, n, m, ...). The keyspace
        // prefix keeps VMs running different executables on one
        // device from replaying each other's graphs (graph ids restart
        // per executable).
        int64_t block = std::max<int64_t>(instr.bucketBlock, 1);
        std::string signature;
        if (!graphKeyspace_.empty()) signature = graphKeyspace_ + ":";
        for (int32_t slot : instr.symbols) {
            int64_t value = frame.live[slot];
            int64_t padded = block > 1 ? bucketCeiling(value, block) : value;
            frame.padded[slot] = padded;
            frame.padding |= padded != value;
            signature += fn.shapes.slots()[slot]->name + "=" +
                         std::to_string(padded) + ",";
        }
        graphStartTs_ = device_->clockUs();
        graphReplay_ = device_->beginGraph(instr.graphId, signature);
        graphSignature_ = std::move(signature);
        openGraphId_ = instr.graphId;
        break;
      }
      case Instr::Op::kGraphEnd:
        device_->endGraph();
        std::copy(frame.live.begin(),
                  frame.live.begin() + fn.shapes.slots().size(),
                  frame.padded.begin());
        frame.padding = false;
        if (trace.enabled()) {
            // Capture vs replay is THE flag downstream tools read:
            // the Fig. 17 launch-overhead story is visible as
            // replay-flagged regions whose kernels carry the
            // graphReplayUs overhead instead of kernelLaunchUs.
            trace.span(trace_lanes::kVm, trace_lanes::kFrames,
                       graphReplay_ ? "graph(replay)"
                                    : "graph(capture)",
                       "graph", graphStartTs_,
                       device_->clockUs() - graphStartTs_,
                       {{"graph_id", openGraphId_},
                        {"signature", graphSignature_},
                        {"replay", (int64_t)(graphReplay_ ? 1 : 0)}});
        }
        openGraphId_ = -1;
        break;
      case Instr::Op::kLoadConst:
        frame.regs[instr.dst] = instr.constant;
        break;
      case Instr::Op::kRebind:
        frame.regs[instr.dst] = frame.regs[instr.args[0]];
        break;
      case Instr::Op::kMakeTuple: {
        auto tuple = std::make_shared<TupleValue>();
        for (RegIndex reg : instr.args) {
            tuple->fields.push_back(frame.regs[reg]);
        }
        frame.regs[instr.dst] = tuple;
        break;
      }
      case Instr::Op::kGetItem: {
        auto tuple =
            std::get<TupleValuePtr>(frame.regs[instr.args[0]]);
        frame.regs[instr.dst] = tuple->fields.at(instr.index);
        break;
      }
      case Instr::Op::kRet:
        result_ = frame.regs[instr.args[0]];
        break;
    }
}

void
Executor::execMatchShape(const Instr& instr, Frame& frame,
                         const VMFunction& fn)
{
    const NDArray& tensor =
        asTensorValue(frame.regs[instr.args[0]], "match_shape");
    for (const auto& [dim, slot] : instr.binds) {
        RELAX_ICHECK(dim < (int)tensor.shape().size());
        // A slot padded at its region's entry keeps its ceiling there.
        if (frame.padded[slot] == frame.live[slot]) {
            frame.padded[slot] = tensor.shape()[dim];
        }
        frame.live[slot] = tensor.shape()[dim];
    }
    for (const auto& [dim, check] : instr.checks) {
        int64_t expected = evalShape(fn.shapes, check.id, frame.live.data(),
                                     check.source);
        if (tensor.shape()[dim] != expected) {
            RELAX_THROW(ShapeError)
                << fn.name << ": runtime shape check failed: dim " << dim
                << " expected " << relax::toString(check.source) << " = "
                << expected << ", got " << tensor.shape()[dim];
        }
    }
}

void
Executor::allocPooled(int64_t bytes, Frame& frame)
{
    // Exact-size reuse: a free block of the same size is taken back from
    // the pool; otherwise the device allocates. finishFrame() returns
    // every block recorded here when the frame ends.
    auto pool_it = freePool_.find(bytes);
    if (pool_it != freePool_.end() && pool_it->second > 0) {
        pool_it->second -= 1;
    } else {
        device_->alloc(bytes);
    }
    frame.pooledBytes.push_back(bytes);
}

void
Executor::execAllocStorage(const Instr& instr, Frame& frame,
                           const VMFunction& fn)
{
    const int64_t* const_size = asIntImm(instr.sizeExpr.source);
    if (const_size) {
        // Statically planned: allocate once, keep across invocations —
        // the "allocate all memory in advance" behavior of §4.3/§4.5.
        auto key = std::make_pair(fn.name, (size_t)instr.dst);
        auto [it, inserted] = staticStorages_.emplace(key, nullptr);
        if (inserted) {
            device_->alloc(*const_size);
            auto storage = std::make_shared<Storage>();
            storage->bytes = *const_size;
            storage->persistent = true;
            it->second = storage;
        }
        frame.regs[instr.dst] = it->second;
        return;
    }
    int64_t bytes = evalShape(fn.shapes, instr.sizeExpr.id, frame.live.data(),
                              instr.sizeExpr.source);
    // Dynamic storage: served by the runtime pool.
    allocPooled(bytes, frame);
    auto storage = std::make_shared<Storage>();
    storage->bytes = bytes;
    frame.regs[instr.dst] = storage;
}

void
Executor::execAllocTensor(const Instr& instr, Frame& frame,
                          const VMFunction& fn)
{
    std::vector<int64_t> shape;
    shape.reserve(instr.shape.size());
    for (const ShapeExpr& dim : instr.shape) {
        shape.push_back(
            evalShape(fn.shapes, dim.id, frame.live.data(), dim.source));
    }
    if (instr.args.empty()) {
        // No storage operand: direct runtime allocation (unplanned path).
        NDArray tensor = dataMode_ ? NDArray::zeros(shape, instr.dtype)
                                   : NDArray::metaOnly(shape, instr.dtype);
        allocPooled(tensor.sizeBytes(), frame);
        frame.regs[instr.dst] = tensor;
        return;
    }
    // Instantiate inside an existing storage: no new device memory.
    frame.regs[instr.dst] = dataMode_
                                ? NDArray::zeros(shape, instr.dtype)
                                : NDArray::metaOnly(shape, instr.dtype);
}

void
Executor::bindKernel(const KernelEntry& kernel)
{
    const tir::PrimFunc& func = kernel.func;
    if (args_.size() != func->params.size()) {
        RELAX_THROW(ShapeError)
            << func->name << ": expected " << func->params.size()
            << " buffer arguments, got " << args_.size();
    }
    if (symArgs_.size() != func->symParams.size()) {
        RELAX_THROW(ShapeError)
            << func->name << ": expected " << func->symParams.size()
            << " symbolic arguments, got " << symArgs_.size();
    }
    kernelRegs_.assign(kernel.shapes.registers().begin(),
                       kernel.shapes.registers().end());
    int64_t* regs = kernelRegs_.data();
    for (const BindStep& step : kernel.binds) {
        if (step.kind == BindStep::Kind::kSymArg) {
            regs[step.value] = symArgs_[step.arg];
            continue;
        }
        const std::vector<int64_t>& shape = args_[step.arg]->shape();
        const tir::Buffer& buffer = func->params[step.arg];
        switch (step.kind) {
          case BindStep::Kind::kSymArg:
            break;
          case BindStep::Kind::kRank:
            if ((int32_t)shape.size() != step.value) {
                RELAX_THROW(ShapeError) << func->name << ": rank mismatch for "
                                        << buffer->name;
            }
            break;
          case BindStep::Kind::kBind:
            regs[step.value] = shape[step.dim];
            break;
          case BindStep::Kind::kSame:
            if (regs[step.value] != shape[step.dim]) {
                RELAX_THROW(ShapeError)
                    << func->name << ": inconsistent binding for "
                    << kernel.shapes.slots()[step.value]->name << ": "
                    << regs[step.value] << " vs " << shape[step.dim];
            }
            break;
          case BindStep::Kind::kCheck: {
            std::optional<int64_t> expected =
                kernel.shapes.tryEval(step.value, regs);
            if (!expected) {
                RELAX_THROW(ShapeError)
                    << func->name << ": cannot resolve dim "
                    << relax::toString(buffer->shape[step.dim]) << " of "
                    << buffer->name;
            }
            if (*expected != shape[step.dim]) {
                RELAX_THROW(ShapeError)
                    << func->name << ": shape check failed for "
                    << buffer->name << " dim " << step.dim << ": expected "
                    << *expected << ", got " << shape[step.dim];
            }
            break;
          }
        }
    }
}

const std::vector<PricedArg>&
Executor::pricedArgs(const Instr& instr, Frame& frame, const VMFunction& fn)
{
    priced_.clear();
    if (!frame.padding) {
        for (const NDArray* arg : args_) priced_.emplace_back(*arg);
        return priced_;
    }
    // Inside a bucketed graph region, library kernels are priced at the
    // padded binding like generated ones: each annotated argument at its
    // shape over the padded frame. Compute still runs on the live
    // tensors — padding affects the clock only.
    pricedDims_.clear();
    for (const std::vector<ShapeExpr>& shape : instr.argShapes) {
        for (const ShapeExpr& dim : shape) {
            pricedDims_.push_back(evalShape(fn.shapes, dim.id,
                                            frame.padded.data(), dim.source));
        }
    }
    const int64_t* dims = pricedDims_.data();
    for (size_t i = 0; i < args_.size(); ++i) {
        size_t rank = instr.argShapes[i].size();
        priced_.emplace_back(*args_[i], rank ? dims : nullptr, rank);
        dims += rank;
    }
    return priced_;
}

void
Executor::execKernelCall(const Instr& instr, Frame& frame,
                         const VMFunction& fn)
{
    args_.clear();
    for (RegIndex reg : instr.args) {
        args_.push_back(
            &asTensorValue(frame.regs[reg], instr.callee.c_str()));
    }
    KernelEntry& kernel = exec->kernels[instr.kernel];
    // The live entry values data mode runs the kernel with.
    auto keep_entry = [&] {
        entry_.assign(kernelRegs_.begin(),
                      kernelRegs_.begin() + kernel.shapes.slots().size());
    };
    if (instr.library) {
        device_->launchKernel(instr.library->cost(pricedArgs(instr, frame, fn),
                                                  *instr.attrs,
                                                  device_->spec()),
                              instr.callee.c_str());
    } else {
        symArgs_.clear();
        for (const ShapeExpr& expr : instr.symExprs) {
            symArgs_.push_back(evalShape(fn.shapes, expr.id,
                                         frame.live.data(), expr.source));
        }
        if (!kernel.flops) compileCost(kernel);
        bindKernel(kernel);
        if (dataMode_) keep_entry();
        // Inside a bucketed graph region the captured graph's kernels are
        // launched at the bucket-ceiling shapes (padded, with masking), so
        // a kernel variable that is a padded function symbol is priced at
        // its ceiling: TIR kernels share their symbolic VarNodes with the
        // graph level. Data-mode compute below still uses the real shapes
        // — padding affects the clock, never the values.
        if (frame.padding) {
            for (size_t j = 0; j < instr.symbols.size(); ++j) {
                int32_t slot = instr.symbols[j];
                if (slot >= 0 && frame.padded[slot] != frame.live[slot]) {
                    kernelRegs_[j] = frame.padded[slot];
                }
            }
        }
        device_->launchKernel(generatedKernelCost(kernel, kernelRegs_.data(),
                                                  device_->spec()),
                              instr.callee.c_str());
    }
    if (!dataMode_) return;
    // From here on a library site runs like a generated kernel.
    if (instr.library) {
        if (!kernel.func) {
            kernel.setFunc(instr.library->program(
                siteShapes(instr, args_), *instr.attrs, args_[0]->dtype()));
        }
        symArgs_.clear();
        bindKernel(kernel);
        keep_entry();
    }
    // Lowered on the first data-mode launch only. Instrumented
    // differential mode: an in-place call also runs, unaliased, on deep
    // copies of its arguments taken before the aliased run, and the two
    // are bit-compared; the reference run shares the entry values.
    if (!kernel.program) kernel.program = tir::lower(kernel.func);
    std::vector<NDArray> args;
    args.reserve(args_.size());
    for (const NDArray* arg : args_) args.push_back(*arg);
    bool alias_check =
        aliasCheckEnabled() && instr.attrs->count("inplace_arg");
    std::vector<NDArray> ref_args;
    if (alias_check) ref_args = copyArgsForReference(args);
    tir::execute(*kernel.program, args, entry_);
    if (alias_check) {
        tir::execute(*kernel.program, ref_args, entry_);
        diffAliasedRun(instr, args, ref_args);
    }
}

void
Executor::execPackedCall(const Instr& instr, Frame& frame)
{
    std::vector<NDArray> args;
    for (RegIndex reg : instr.args) {
        args.push_back(asTensorValue(frame.regs[reg], "packed_call"));
    }
    priced_.clear();
    for (const NDArray& arg : args) priced_.emplace_back(arg);
    device_->launchKernel(
        instr.library->cost(priced_, *instr.attrs, device_->spec()),
        instr.callee.c_str());
    if (dataMode_) {
        instr.library->compute(args, *instr.attrs);
        frame.regs[instr.dst] = args.back();
    } else {
        // Timing mode: data-dependent output degrades to worst case.
        frame.regs[instr.dst] = args.empty() ? NDArray() : args[0];
    }
}

double
PricedArg::at(int64_t flat) const
{
    const std::vector<int64_t>& live = live_->shape();
    if (shape_ == live.data()) return live_->at(flat);
    if (live.size() != rank_) return 0.0;
    // The same multi-index in the live tensor, if it is inside it.
    int64_t live_flat = 0, stride = 1;
    for (size_t d = rank_; d-- > 0;) {
        int64_t index = flat % shape_[d];
        flat /= shape_[d];
        if (index >= live[d]) return 0.0;
        live_flat += index * stride;
        stride *= live[d];
    }
    return live_->at(live_flat);
}

} // namespace vm
} // namespace relax
