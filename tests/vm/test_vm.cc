/**
 * @file
 * VM tests: codegen of lowered modules and the binding of every call at
 * build time, execution in data and timing modes, runtime shape checks,
 * static storage caching, graph capture/replay, library dispatch
 * equivalence, and the per-executable kernel program cache.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "op/ops.h"
#include "shape/block_builder.h"
#include "vm/vm.h"

namespace relax {
namespace vm {
namespace {

using namespace ir;
using Var = ir::Var;

/** x:(n,4) -> exp -> relu -> add(x) on a chosen device/options. */
ir::IRModulePtr
buildChain()
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var lv1 = builder.emit(op::relu(lv0));
    Var out = builder.emitOutput(op::add(lv1, x));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));
    return module;
}

std::shared_ptr<device::SimDevice>
hostDevice()
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(64) << 30;
    return std::make_shared<device::SimDevice>(spec);
}

/**
 * Data-mode arguments of a tiny Llama `decode_ragged` call: one row
 * decoding one token at position 0, on pools of two 4-position pages.
 */
std::vector<Value>
raggedDecodeArgs(const frontend::LlamaConfig& config)
{
    std::vector<Value> args;
    args.emplace_back(NDArray::fromVector({1, 1}, DataType::i64(), {5}));
    args.emplace_back(NDArray::fromVector({1}, DataType::i64(), {0}));
    args.emplace_back(NDArray::fromVector({2}, DataType::i64(), {0, 1}));
    args.emplace_back(NDArray::fromVector({1, 1}, DataType::i64(), {0}));
    for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
        args.emplace_back(NDArray::zeros(
            {2, config.numHeads, 4, config.headDim}, DataType::f16()));
    }
    for (auto& w : frontend::makeLlamaWeights(config, /*with_data=*/true)) {
        args.emplace_back(std::move(w));
    }
    return args;
}

/** The kernels a function launches that the compiler generated. */
std::set<const tir::PrimFuncNode*>
generatedKernels(const Executable& exec, const std::string& function)
{
    std::set<const tir::PrimFuncNode*> kernels;
    for (const Instr& instr : exec.functions.at(function).instrs) {
        if (instr.op == Instr::Op::kKernelCall && !instr.isLibrary) {
            kernels.insert(exec.module->getTIRFunc(instr.callee).get());
        }
    }
    return kernels;
}

/** main(p0, p1, ...) = op(p0, p1, ...) over f32 tensors of `shapes`. */
ir::IRModulePtr
oneOpModule(const std::vector<std::vector<PrimExpr>>& shapes,
            const std::function<ir::Call(const std::vector<Var>&)>& op)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    std::vector<Var> params;
    for (const auto& shape : shapes) {
        params.push_back(makeVar("p" + std::to_string(params.size()),
                                 tensorSInfo(shape, DataType::f32())));
    }
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(op(params));
    builder.endBlock();
    module->addFunction("main", makeFunction(params, builder.finish(out),
                                             out->structInfo()));
    return module;
}

/** A data-bearing f32 tensor with small, varied, deterministic values. */
NDArray
filled(std::vector<int64_t> shape, double step)
{
    NDArray array = NDArray::zeros(std::move(shape), DataType::f32());
    for (int64_t i = 0; i < array.numel(); ++i) {
        array.set(i, step * (double)(i % 7) - 0.25);
    }
    return array;
}

TEST(VMTest, ExecutesChainWithRealData)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);

    NDArray x = NDArray::fromVector({2, 4}, DataType::f32(),
                                    {0, 1, -1, 2, 0, 0, 0, 0});
    Value result = machine.invoke("main", {x});
    const NDArray& out = std::get<NDArray>(result);
    // add(relu(exp(x)), x): exp always positive so relu is identity.
    EXPECT_NEAR(out.at(0), 1.0 + 0.0, 1e-6);
    EXPECT_NEAR(out.at(1), std::exp(1.0) + 1.0, 1e-6);
    EXPECT_NEAR(out.at(2), std::exp(-1.0) - 1.0, 1e-6);
}

TEST(VMTest, ServesMultipleDynamicShapesFromOneExecutable)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    VirtualMachine machine(exec, hostDevice(), true);
    for (int64_t rows : {1, 3, 8}) {
        NDArray x = NDArray::zeros({rows, 4}, DataType::f32());
        Value result = machine.invoke("main", {x});
        EXPECT_EQ(std::get<NDArray>(result).shape()[0], rows);
    }
}

TEST(VMTest, RuntimeShapeCheckRejectsBadInput)
{
    // Function annotated (n, 4): passing (2, 5) must fail the MatchShape
    // check inserted from the signature (§4.1 lightweight runtime checks).
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    VirtualMachine machine(exec, hostDevice(), true);
    NDArray bad = NDArray::zeros({2, 5}, DataType::f32());
    EXPECT_THROW(machine.invoke("main", {bad}), ShapeError);
}

TEST(VMTest, TimingModeTracksClockWithoutData)
{
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    VirtualMachine machine(exec, dev, /*data_mode=*/false);
    NDArray x = NDArray::metaOnly({1024, 4}, DataType::f32());
    machine.invoke("main", {x});
    EXPECT_GT(machine.lastRunStats().latencyUs, 0.0);
    EXPECT_GT(machine.lastRunStats().kernelLaunches, 0);
}

TEST(VMTest, StaticPlanAllocatesOnceAcrossCalls)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.bounds = {{"n", 64}};
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = hostDevice();
    VirtualMachine machine(exec, dev, true);
    NDArray x = NDArray::zeros({8, 4}, DataType::f32());
    machine.invoke("main", {x});
    int64_t first_call = machine.lastRunStats().bytesAllocated;
    EXPECT_GT(first_call, 0);
    machine.invoke("main", {x});
    // Pre-allocated static storages are reused: no new device memory.
    EXPECT_EQ(machine.lastRunStats().bytesAllocated, 0);
    // Different shape, same executable, still no new memory (upper bound).
    NDArray y = NDArray::zeros({64, 4}, DataType::f32());
    machine.invoke("main", {y});
    EXPECT_EQ(machine.lastRunStats().bytesAllocated, 0);
}

TEST(VMTest, RuntimePoolRecyclesExactSizes)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.enableMemoryPlanning = false; // runtime allocator path
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = hostDevice();
    VirtualMachine machine(exec, dev, true);
    NDArray x = NDArray::zeros({8, 4}, DataType::f32());
    machine.invoke("main", {x});
    EXPECT_GT(machine.lastRunStats().bytesAllocated, 0);
    machine.invoke("main", {x});
    EXPECT_EQ(machine.lastRunStats().bytesAllocated, 0); // pool hit
    // A new shape misses the exact-size pool: fresh allocations.
    NDArray y = NDArray::zeros({16, 4}, DataType::f32());
    machine.invoke("main", {y});
    EXPECT_GT(machine.lastRunStats().bytesAllocated, 0);
}

TEST(VMTest, GraphReplayReducesLaunchOverhead)
{
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"n", 64}};
    // Keep the three elementwise kernels separate so a multi-kernel graph
    // region exists to capture.
    options.enableFusion = false;
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    VirtualMachine machine(exec, dev, /*data_mode=*/false);
    NDArray x = NDArray::metaOnly({8, 4}, DataType::f32());
    machine.invoke("main", {x}); // capture
    double first = machine.lastRunStats().latencyUs;
    machine.invoke("main", {x}); // replay
    double second = machine.lastRunStats().latencyUs;
    EXPECT_LT(second, first);
}

TEST(VMTest, LibraryDispatchMatchesGeneratedKernels)
{
    // Every DPS library kernel runs its reference tensor program, so each
    // one must match the compiler's generated kernel bit for bit.
    struct Case
    {
        std::string library;
        std::function<ir::IRModulePtr()> build;
        std::vector<NDArray> inputs;
    };
    std::vector<Case> cases;
    cases.push_back({"cublas.matmul",
                     [] {
                         SymVar n = var("n");
                         return oneOpModule(
                             {{n, intImm(8)}, {intImm(8), intImm(4)}},
                             [](const std::vector<Var>& p) {
                                 return op::matmul(p[0], p[1]);
                             });
                     },
                     {filled({3, 8}, 0.1), filled({8, 4}, 0.2)}});
    cases.push_back({"flashattn.attention",
                     [] {
                         SymVar n = var("n");
                         std::vector<PrimExpr> qkv{intImm(1), intImm(2), n,
                                                   intImm(4)};
                         return oneOpModule(
                             {qkv, qkv, qkv},
                             [](const std::vector<Var>& p) {
                                 return op::attention(p[0], p[1], p[2], 0.5,
                                                      /*causal=*/true);
                             });
                     },
                     {filled({1, 2, 3, 4}, 0.1), filled({1, 2, 3, 4}, 0.3),
                      filled({1, 2, 3, 4}, 0.2)}});
    cases.push_back({"cutlass.rms_norm",
                     [] {
                         SymVar n = var("n");
                         return oneOpModule(
                             {{n, intImm(8)}, {intImm(8)}},
                             [](const std::vector<Var>& p) {
                                 return op::rmsNorm(p[0], p[1]);
                             });
                     },
                     {filled({3, 8}, 0.1), filled({8}, 0.2)}});
    cases.push_back({"cutlass.layer_norm",
                     [] {
                         SymVar n = var("n");
                         return oneOpModule(
                             {{n, intImm(8)}, {intImm(8)}, {intImm(8)}},
                             [](const std::vector<Var>& p) {
                                 return op::layerNorm(p[0], p[1], p[2]);
                             });
                     },
                     {filled({3, 8}, 0.1), filled({8}, 0.2),
                      filled({8}, 0.3)}});

    for (const Case& c : cases) {
        SCOPED_TRACE(c.library);
        std::vector<Value> args(c.inputs.begin(), c.inputs.end());

        frontend::CompileOptions gen_options;
        gen_options.device = hostDevice()->spec(); // no libraries
        VirtualMachine gen_machine(frontend::compile(c.build(), gen_options),
                                   hostDevice(), true);
        NDArray gen_out = std::get<NDArray>(gen_machine.invoke("main", args));

        frontend::CompileOptions lib_options;
        lib_options.device = device::rtx4090(); // vendor library path
        ExecutablePtr lib_exec = frontend::compile(c.build(), lib_options);
        int library_sites = 0;
        for (const Instr& instr : lib_exec->functions.at("main").instrs) {
            library_sites += instr.op == Instr::Op::kKernelCall &&
                             instr.callee == c.library;
        }
        ASSERT_EQ(library_sites, 1);
        VirtualMachine lib_machine(
            lib_exec, std::make_shared<device::SimDevice>(device::rtx4090()),
            true);
        NDArray lib_out = std::get<NDArray>(lib_machine.invoke("main", args));
        EXPECT_EQ(gen_out.shape(), lib_out.shape());
        EXPECT_EQ(gen_out.data(), lib_out.data());
    }
}

TEST(VMTest, LibrarySiteBindsCompositeDims)
{
    // A library site's argument may have a composite dim (here the
    // concat's 2n) whose variable no argument of the site has bare. Its
    // reference program still binds from the live tensors and matches
    // the generated kernel.
    auto build = [](bool library) {
        auto module = IRModule::create();
        shape::BlockBuilder builder(module);
        SymVar n = var("n");
        Var x = makeVar("x", tensorSInfo({n, intImm(8)}, DataType::f32()));
        Var w = makeVar("w", tensorSInfo({intImm(8)}, DataType::f32()));
        builder.beginDataflowBlock();
        Var y = builder.emit(op::concat({x, x}, 0));
        Var out = builder.emitOutput(
            library ? callDPSLibrary("cutlass.rms_norm", {y, w},
                                     y->structInfo())
                    : op::rmsNorm(y, w));
        builder.endBlock();
        module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                                 out->structInfo()));
        return module;
    };
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    std::vector<Value> args{filled({3, 8}, 0.1), filled({8}, 0.2)};
    VirtualMachine gen(frontend::compile(build(false), options), hostDevice(),
                       true);
    VirtualMachine lib(frontend::compile(build(true), options), hostDevice(),
                       true);
    NDArray gen_out = std::get<NDArray>(gen.invoke("main", args));
    NDArray lib_out = std::get<NDArray>(lib.invoke("main", args));
    EXPECT_EQ(lib_out.shape(), (std::vector<int64_t>{6, 8}));
    EXPECT_EQ(gen_out.data(), lib_out.data());
}

TEST(VMTest, UnlinkedLibraryIsABuildError)
{
    // Calls bind when the executable is built, so a callee that no
    // library links fails there, by name, before anything runs.
    auto build = [] {
        SymVar n = var("n");
        return oneOpModule({{n, intImm(4)}}, [n](const std::vector<Var>& p) {
            return callDPSLibrary("nosuch.gemm", {p[0]},
                                  tensorSInfo({n, intImm(4)},
                                              DataType::f32()));
        });
    };
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    try {
        frontend::compile(build(), options);
        FAIL() << "expected IRError";
    } catch (const IRError& e) {
        EXPECT_NE(std::string(e.what()).find("nosuch.gemm"),
                  std::string::npos)
            << e.what();
    }
}

TEST(VMTest, RaggedAttentionLibraryPricesPerSequence)
{
    // The paged-pool FlashAttention sim is data-dependent: its cost sums
    // per-row fresh-token counts (from cu_fresh) times true per-sequence
    // lengths (the [b] host tensor carries data even in timing mode),
    // never the pool size — the reason one packed varlen call beats
    // per-group calls and a huge resident pool costs nothing per step.
    // Without host data it degrades to the worst case of the mapped
    // table width.
    const LibraryKernel* kernel = findLibrary("flashattn.attention_ragged");
    ASSERT_NE(kernel, nullptr);
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";

    // Pool of 40 pages of 16 positions; each row maps w = 4 pages, so
    // keys range over m = 64 positions regardless of the pool size.
    const int64_t h = 2, d = 8, pages = 40, c = 16, w = 4;
    auto cost_with = [&](std::vector<double> lens, std::vector<double> cu,
                         int64_t n) {
        int64_t b = (int64_t)std::max<size_t>(lens.size(), 1);
        int64_t cu_n = (int64_t)cu.size();
        std::vector<NDArray> args{
            NDArray::metaOnly({1, h, n, d}, DataType::f16()),
            NDArray::metaOnly({pages, h, c, d}, DataType::f16()),
            NDArray::metaOnly({pages, h, c, d}, DataType::f16()),
            lens.empty()
                ? NDArray::metaOnly({4}, DataType::i64())
                : NDArray::fromVector({b}, DataType::i64(),
                                      std::move(lens)),
            cu.empty() ? NDArray::metaOnly({5}, DataType::i64())
                       : NDArray::fromVector({cu_n}, DataType::i64(),
                                             std::move(cu)),
            NDArray::metaOnly({b, w}, DataType::i64()),
            NDArray::metaOnly({1, h, n, d}, DataType::f16())};
        return kernel->cost(args, {}, spec);
    };

    // Pure decode: four rows of one fresh token each.
    device::KernelCost shorter =
        cost_with({3, 5, 7, 9}, {0, 1, 2, 3, 4}, 4);
    device::KernelCost longer =
        cost_with({30, 50, 60, 63}, {0, 1, 2, 3, 4}, 4);
    device::KernelCost padded = cost_with({}, {}, 4); // no data
    EXPECT_LT(shorter.flops, longer.flops);
    EXPECT_LT(shorter.bytes, longer.bytes);
    EXPECT_LT(longer.flops, padded.flops);
    // The no-data fallback prices every row at the full cache length.
    device::KernelCost full =
        cost_with({63, 63, 63, 63}, {0, 1, 2, 3, 4}, 4);
    EXPECT_DOUBLE_EQ(full.flops, padded.flops);

    // Packed mixed prefill+decode pricing equals the sum of per-row
    // costs: rows of fresh {4, 1, 3, 1} against lens {0, 10, 2, 5}.
    std::vector<double> mix_lens{0, 10, 2, 5};
    std::vector<double> mix_cu{0, 4, 5, 8, 9};
    device::KernelCost packed = cost_with(mix_lens, mix_cu, 9);
    double sum_flops = 0.0, sum_bytes = 0.0;
    for (size_t r = 0; r < mix_lens.size(); ++r) {
        double fresh = mix_cu[r + 1] - mix_cu[r];
        device::KernelCost row = cost_with(
            {mix_lens[r]}, {0, fresh}, (int64_t)fresh);
        sum_flops += row.flops;
        sum_bytes += row.bytes;
    }
    EXPECT_DOUBLE_EQ(packed.flops, sum_flops);
    // Byte streams agree up to the cu_fresh metadata the per-row split
    // duplicates: four {0, fresh} tensors hold 8 entries where the
    // packed call's [b+1] holds 5 — three extra i64s.
    EXPECT_DOUBLE_EQ(packed.bytes + 3 * 8.0, sum_bytes);

    // Padded bucket bindings: zero-filled phantom rows (padForPricing's
    // contract) must price nothing — the clamp max(cu[i+1]-cu[i], 0)
    // ignores the zero tail.
    device::KernelCost bucketed = cost_with(
        {0, 10, 2, 5, 0, 0}, {0, 4, 5, 8, 9, 0, 0}, 9);
    EXPECT_DOUBLE_EQ(bucketed.flops, packed.flops);
}

TEST(VMTest, DisassemblyIsReadable)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    std::string text = toString(exec->functions.at("main"));
    EXPECT_NE(text.find("vm_function main"), std::string::npos);
    EXPECT_NE(text.find("kernel_call"), std::string::npos);
    EXPECT_NE(text.find("match_shape"), std::string::npos);
    EXPECT_NE(text.find("alloc_storage"), std::string::npos);
}

TEST(VMTest, KernelsDieWithTheirExecutable)
{
    // The VM caches each generated kernel's cost expressions and, in
    // data mode, its lowered program. That cache belongs to the
    // executable: once the VMs and the executable are gone, nothing may
    // keep the kernels alive.
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    std::weak_ptr<tir::PrimFuncNode> kernel, lowered;
    {
        frontend::CompileOptions options;
        options.device = hostDevice()->spec();
        ExecutablePtr exec =
            frontend::compile(frontend::buildLlama(config), options);
        for (const Instr& instr : exec->functions.at("decode").instrs) {
            if (instr.op == Instr::Op::kKernelCall && !instr.isLibrary) {
                kernel = exec->module->getTIRFunc(instr.callee);
                break;
            }
        }
        ASSERT_FALSE(kernel.expired()) << "decode launches no kernel";

        std::vector<Value> args;
        args.emplace_back(NDArray::metaOnly({1, 1}, DataType::i64()));
        for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
            args.emplace_back(NDArray::metaOnly(
                {1, config.numHeads, 8, config.headDim}, DataType::f16()));
        }
        for (auto& w :
             frontend::makeLlamaWeights(config, /*with_data=*/false)) {
            args.emplace_back(std::move(w));
        }
        VirtualMachine machine(exec, hostDevice(), /*data_mode=*/false);
        machine.invoke("decode", args);
        EXPECT_GT(machine.lastRunStats().kernelLaunches, 0);

        // Data mode adds each kernel's lowered program to the cache.
        VirtualMachine data(exec, hostDevice(), /*data_mode=*/true);
        data.invoke("decode_ragged", raggedDecodeArgs(config));
        for (const Instr& instr :
             exec->functions.at("decode_ragged").instrs) {
            if (instr.op == Instr::Op::kKernelCall && !instr.isLibrary) {
                const KernelEntry& entry = exec->kernels[instr.kernel];
                ASSERT_TRUE(entry.program);
                lowered = entry.func;
                break;
            }
        }
        ASSERT_FALSE(lowered.expired());
    }
    EXPECT_TRUE(kernel.expired());
    EXPECT_TRUE(lowered.expired());
}

TEST(VMTest, DataModeLowersEachKernelOnce)
{
    // One program per distinct generated kernel and per library call
    // site, lowered on the first data-mode call and reused by every
    // later one. The rtx4090 dispatches GEMMs, attention and norms to
    // its libraries, so both kinds of entry are exercised.
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    ExecutablePtr exec =
        frontend::compile(frontend::buildLlama(config), options);
    std::set<const tir::PrimFuncNode*> launched =
        generatedKernels(*exec, "decode_ragged");
    ASSERT_FALSE(launched.empty());

    // The entries decode_ragged binds: generated sites share their
    // kernel's entry, and every library site has its own.
    std::set<int32_t> generated, library;
    size_t library_sites = 0;
    for (const Instr& instr : exec->functions.at("decode_ragged").instrs) {
        if (instr.op != Instr::Op::kKernelCall) continue;
        ASSERT_GE(instr.kernel, 0) << instr.callee;
        if (instr.isLibrary) {
            library.insert(instr.kernel);
            ++library_sites;
        } else {
            generated.insert(instr.kernel);
            EXPECT_TRUE(launched.count(exec->kernels[instr.kernel].func.get()));
        }
    }
    EXPECT_EQ(generated.size(), launched.size());
    ASSERT_FALSE(library.empty());
    EXPECT_EQ(library.size(), library_sites);
    std::set<int32_t> expected = generated;
    expected.insert(library.begin(), library.end());

    auto lowered = [&] {
        std::map<int32_t, const tir::SlotProgram*> programs;
        for (size_t i = 0; i < exec->kernels.size(); ++i) {
            if (exec->kernels[i].program) {
                programs[(int32_t)i] = exec->kernels[i].program.get();
            }
        }
        return programs;
    };
    std::vector<Value> args = raggedDecodeArgs(config);
    VirtualMachine machine(
        exec, std::make_shared<device::SimDevice>(device::rtx4090()),
        /*data_mode=*/true);
    machine.invoke("decode_ragged", args);
    std::map<int32_t, const tir::SlotProgram*> first = lowered();
    std::set<int32_t> first_keys;
    for (const auto& [index, program] : first) first_keys.insert(index);
    EXPECT_EQ(first_keys, expected);

    machine.invoke("decode_ragged", args);
    EXPECT_EQ(lowered(), first);
}

} // namespace
} // namespace vm
} // namespace relax
