/**
 * @file
 * Implements the benchmark's shared helpers (see harness.h).
 */
#include "harness.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "arith/substitute.h"
#include "passes/alias_analysis.h"
#include "passes/passes.h"
#include "support/trace.h"
#include "tir/interpreter.h"

extern char** environ;

namespace relax {
namespace perfbench {

double
nowUs()
{
    using namespace std::chrono;
    static const steady_clock::time_point origin = steady_clock::now();
    return duration<double, std::micro>(steady_clock::now() - origin).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    size_t idx = (size_t)((double)(values.size() - 1) * p + 0.5);
    return values[idx];
}

double
median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (double v : values) log_sum += std::log(v);
    return std::exp(log_sum / (double)values.size());
}

void
RunContext::span(std::string name, double start_us, double end_us) const
{
    spans->span(kHostSpanPid, 0, std::move(name), "host", start_us,
                end_us - start_us);
}

void
Yardstick::tick()
{
    double t0 = nowUs();
    if (!chunkUs_.empty() && t0 - lastUs_ < kIntervalUs) return;
    int out[2];
    RELAX_ICHECK(pipe(out) == 0) << "cannot open a pipe to the yardstick";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    char* argv[] = {binary_.data(), nullptr};
    pid_t pid;
    int spawned = posix_spawn(&pid, binary_.c_str(), &actions, nullptr,
                              argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    std::string text;
    char buf[256];
    ssize_t n = 0;
    while (spawned == 0 && (n = read(out[0], buf, sizeof(buf))) > 0) {
        text.append(buf, (size_t)n);
    }
    close(out[0]);
    int status = 0;
    bool ok = spawned == 0 && waitpid(pid, &status, 0) == pid &&
              WIFEXITED(status) && WEXITSTATUS(status) == 0;
    static const std::string kKey = "\"chunk_us\":";
    size_t key = text.find(kKey);
    RELAX_ICHECK(ok && key != std::string::npos)
        << "yardstick " << binary_ << " failed";
    chunkUs_.push_back(std::strtod(text.c_str() + key + kKey.size(), nullptr));
    double t1 = nowUs();
    spentUs_ += t1 - t0;
    lastUs_ = t1;
}

double
Yardstick::slowdownSince(size_t first) const
{
    if (chunkUs_.empty()) return 1.0;
    first = std::min(first, chunkUs_.size() - 1);
    double total = 0.0;
    for (size_t i = first; i < chunkUs_.size(); ++i) total += chunkUs_[i];
    return total / (double)(chunkUs_.size() - first) / kNominalChunkUs;
}

namespace {

double
numArg(const TraceRecorder::Event& event, const char* key)
{
    for (const TraceArg& arg : event.args) {
        if (arg.key == key) {
            return arg.kind == TraceArg::Kind::kDouble ? arg.d
                                                       : (double)arg.i;
        }
    }
    return 0.0;
}

KernelTally::Class
kernelClass(const std::string& kernel)
{
    if (kernel.find("attention") != std::string::npos) {
        return KernelTally::kAttention;
    }
    if (kernel.rfind("kv.", 0) == 0) return KernelTally::kKv;
    if (kernel.find("matmul") != std::string::npos) return KernelTally::kMatmul;
    return KernelTally::kElementwise;
}

} // namespace

void
KernelTally::drain(TraceRecorder& trace, const device::DeviceSpec& spec)
{
    for (const TraceRecorder::Event& e : trace.events()) {
        if (e.ph == 'i' && e.name == "admit") {
            admittedMatched += (int64_t)numArg(e, "prefix_matched");
            admittedFresh += (int64_t)numArg(e, "prefill_tokens");
            continue;
        }
        if (e.ph != 'X') continue;
        if (e.cat == "kernel") {
            double launch = numArg(e, "launch_us");
            double bytes_moved = numArg(e, "bytes");
            Class cls = kernelClass(e.name);
            busyUs[cls] += e.dur - launch;
            launchUs += launch;
            bytes += bytes_moved;
            if (cls == kMatmul) {
                matmulPeakBwUs += bytes_moved / (spec.memBandwidthGBs * 1e3);
            }
        } else if (e.cat == "step") {
            ++stepSpans;
            stepRows += (int64_t)numArg(e, "rows");
        }
    }
    trace.clear();
}

namespace {

/** Sum of graph-level bindings over every function of the module. */
int64_t
countBindings(const ir::IRModulePtr& module)
{
    int64_t count = 0;
    for (const auto& [name, func] : module->functions()) {
        if (!func->body || func->body->kind() != ir::RxKind::kSeqExpr) {
            continue;
        }
        auto seq = std::static_pointer_cast<ir::SeqExprNode>(func->body);
        for (const auto& block : seq->blocks) {
            count += (int64_t)block->bindings.size();
        }
    }
    return count;
}

} // namespace

int64_t
execInstrs(const vm::Executable& exec)
{
    int64_t count = 0;
    for (const auto& [name, func] : exec.functions) {
        count += (int64_t)func.instrs.size();
    }
    return count;
}

namespace {

/** One pass of the mirrored pipeline; `runs` is false where compile()
 *  skips it for these options. */
struct MirroredPass
{
    passes::Pass pass;
    bool runs = true;
};

/** frontend::compile()'s pipeline, pass by pass (tensorParallel 1),
 *  including the passes these options skip. */
std::vector<MirroredPass>
mirroredPipeline(const frontend::CompileOptions& options)
{
    passes::TargetInfo target =
        frontend::targetFromDevice(options.device, options);
    return {
        {passes::normalizePass()},
        {passes::constantFoldPass()},
        {passes::partialLibraryLoweringPass(target),
         options.enableLibraryLowering},
        {passes::legalizeOpsPass()},
        {passes::deadCodeEliminationPass()},
        {passes::annotateTIRPatternsPass()},
        {passes::fuseOpsPass(), options.enableFusion},
        {passes::fuseTensorIRPass(), options.enableFusion},
        {passes::workspaceLiftingPass()},
        {passes::inplacePlanPass(), options.enableInplacePlanning},
        {passes::lowerCallTIRPass()},
        {passes::staticMemoryPlanPass(options.bounds),
         options.enableMemoryPlanning},
        {passes::graphOffloadPass(target), target.supportsExecutionGraphs},
    };
}

} // namespace

vm::ExecutablePtr
compileModel(const frontend::LlamaConfig& config,
             const frontend::CompileOptions& options, const RunContext& ctx,
             std::map<std::string, double>& layer)
{
    if (!ctx.traced) {
        return frontend::compile(frontend::buildLlama(config), options);
    }
    RELAX_ICHECK(options.tensorParallel == 1)
        << "the mirrored pipeline covers single-device builds only";
    double t0 = nowUs();
    ir::IRModulePtr module = frontend::buildLlama(config);
    double t1 = nowUs();
    ctx.span("frontend.buildLlama", t0, t1);
    layer["frontend.build_ms"] += (t1 - t0) / 1e3;
    bool verify_alias = passes::aliasVerifierEnabled();
    for (const auto& [pass, runs] : mirroredPipeline(options)) {
        std::string prefix = "passes." + pass.name;
        if (!runs) {
            // A skipped pass reports 0, so every workload lists all 13.
            layer[prefix + ".ms"] += 0.0;
            layer[prefix + ".bindings_out"] += 0.0;
            continue;
        }
        t0 = nowUs();
        module = pass.run(std::move(module));
        if (verify_alias) passes::verifyAliasSafety(module);
        t1 = nowUs();
        ctx.span(prefix, t0, t1);
        layer[prefix + ".ms"] += (t1 - t0) / 1e3;
        layer[prefix + ".bindings_out"] +=
            (double)countBindings(module);
    }
    t0 = nowUs();
    vm::ExecutablePtr exec = vm::buildExecutable(module);
    t1 = nowUs();
    ctx.span("vm.buildExecutable", t0, t1);
    layer["vm.codegen_ms"] += (t1 - t0) / 1e3;
    return exec;
}

void
verifyMirror(const vm::ExecutablePtr& mirrored,
             const frontend::LlamaConfig& config,
             const frontend::CompileOptions& options, PassOut& out)
{
    double t0 = nowUs();
    vm::ExecutablePtr reference =
        frontend::compile(frontend::buildLlama(config), options);
    std::string tag = " (" + config.name + ", " + options.device.name + ")";
    out.check(execInstrs(*mirrored) == execInstrs(*reference),
              "mirrored build differs from frontend::compile in VM "
              "instruction count" + tag);
    out.check(passes::memoryPlanReport(mirrored->module).storagesAllocated ==
                  passes::memoryPlanReport(reference->module)
                      .storagesAllocated,
              "mirrored build differs from frontend::compile in planned "
              "storages" + tag);
    out.check(decodeLatencyUs(mirrored, config, options.device, 128) ==
                  decodeLatencyUs(reference, config, options.device, 128),
              "mirrored build differs from frontend::compile in simulated "
              "decode latency" + tag);
    out.checkUs += nowUs() - t0;
}

std::vector<vm::Value>
decodeArgs(const frontend::LlamaConfig& config,
           const std::vector<NDArray>& weights, int64_t ctx)
{
    std::vector<vm::Value> args;
    args.emplace_back(NDArray::metaOnly({1, 1}, DataType::i64()));
    for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
        args.emplace_back(NDArray::metaOnly(
            {1, config.numHeads, ctx, config.headDim}, DataType::f16()));
    }
    for (const NDArray& w : weights) args.emplace_back(w);
    return args;
}

std::vector<vm::Value>
prefillArgs(const frontend::LlamaConfig& config,
            const std::vector<NDArray>& weights, int64_t tokens)
{
    std::vector<vm::Value> args;
    args.emplace_back(NDArray::metaOnly({1, tokens}, DataType::i64()));
    for (const NDArray& w : weights) args.emplace_back(w);
    return args;
}

double
decodeLatencyUs(const vm::ExecutablePtr& exec,
                const frontend::LlamaConfig& config,
                const device::DeviceSpec& spec, int64_t ctx)
{
    vm::VirtualMachine machine(exec, std::make_shared<device::SimDevice>(spec),
                               /*data_mode=*/false);
    auto args = decodeArgs(
        config, frontend::makeLlamaWeights(config, /*with_data=*/false), ctx);
    machine.invoke("decode", args);
    machine.invoke("decode", args);
    return machine.lastRunStats().latencyUs;
}

device::DeviceSpec
hostCpu()
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    return spec;
}

double
tirRunHostUs()
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = hostCpu();
    vm::ExecutablePtr exec =
        frontend::compile(frontend::buildLlama(config), options);
    tir::PrimFunc func;
    for (const vm::Instr& instr : exec->functions.at("decode_ragged").instrs) {
        if (instr.op == vm::Instr::Op::kKernelCall && !instr.isLibrary &&
            instr.callee.find("matmul") != std::string::npos) {
            func = exec->module->getTIRFunc(instr.callee);
            break;
        }
    }
    RELAX_ICHECK(func) << "tiny decode_ragged has no generated matmul";
    // Every symbolic dim takes one small value, which keeps the shapes of
    // all buffers consistent with each other.
    VarBinding binding;
    std::unordered_set<const VarNode*> vars;
    for (const auto& buffer : func->params) {
        for (const auto& dim : buffer->shape) collectVars(dim, &vars);
    }
    for (const auto& sym : func->symParams) vars.insert(sym.get());
    for (const VarNode* v : vars) binding[v] = 8;
    std::vector<NDArray> args;
    for (const auto& buffer : func->params) {
        std::vector<int64_t> shape;
        for (const auto& dim : buffer->shape) {
            shape.push_back(evalInt(dim, binding));
        }
        NDArray array = NDArray::zeros(shape, buffer->dtype);
        for (int64_t i = 0; i < array.numel(); ++i) {
            array.set(i, 0.01 * (double)(i % 7));
        }
        args.push_back(array);
    }
    std::vector<int64_t> sym_args(func->symParams.size(), 8);
    std::vector<double> samples;
    for (int i = 0; i < 205; ++i) {
        double t0 = nowUs();
        tir::run(func, args, sym_args);
        if (i >= 5) samples.push_back(nowUs() - t0);
    }
    return median(samples);
}

} // namespace perfbench
} // namespace relax
