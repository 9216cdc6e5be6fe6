/**
 * @file
 * VM tests: codegen of lowered modules, execution in data and timing
 * modes, runtime shape checks, static storage caching, graph
 * capture/replay, and library dispatch equivalence.
 */
#include <gtest/gtest.h>

#include <cmath>

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
    // matmul through cublas-sim == matmul through generated kernel.
    auto build = [] {
        auto module = IRModule::create();
        shape::BlockBuilder builder(module);
        SymVar n = var("n");
        Var x = makeVar("x", tensorSInfo({n, intImm(8)}, DataType::f32()));
        Var w = makeVar("w", tensorSInfo({intImm(8), intImm(4)},
                                         DataType::f32()));
        builder.beginDataflowBlock();
        Var out = builder.emitOutput(op::matmul(x, w));
        builder.endBlock();
        module->addFunction("main",
                            makeFunction({x, w}, builder.finish(out),
                                         out->structInfo()));
        return module;
    };
    NDArray x = NDArray::zeros({3, 8}, DataType::f32());
    NDArray w = NDArray::zeros({8, 4}, DataType::f32());
    for (int64_t i = 0; i < x.numel(); ++i) x.set(i, 0.1 * (double)(i % 7));
    for (int64_t i = 0; i < w.numel(); ++i) w.set(i, 0.2 * (double)(i % 5));

    frontend::CompileOptions gen_options;
    gen_options.device = hostDevice()->spec(); // no libraries
    VirtualMachine gen_machine(frontend::compile(build(), gen_options),
                               hostDevice(), true);
    NDArray gen_out = std::get<NDArray>(gen_machine.invoke("main", {x, w}));

    frontend::CompileOptions lib_options;
    lib_options.device = device::rtx4090(); // cublas path
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    VirtualMachine lib_machine(frontend::compile(build(), lib_options), dev,
                               true);
    NDArray lib_out = std::get<NDArray>(lib_machine.invoke("main", {x, w}));
    EXPECT_EQ(gen_out.data(), lib_out.data());
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
    ensureLibrariesRegistered();
    const LibraryKernel* kernel =
        LibraryRegistry::global().find("flashattn.attention_ragged");
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
    // Timing-mode pricing caches each generated kernel's cost
    // expressions. That cache belongs to the executable: once the VM and
    // the executable are gone, nothing may keep the kernels alive.
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    std::weak_ptr<tir::PrimFuncNode> kernel;
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
    }
    EXPECT_TRUE(kernel.expired());
}

} // namespace
} // namespace vm
} // namespace relax
