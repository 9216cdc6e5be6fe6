/**
 * @file
 * VM tests: codegen of lowered modules and the binding of every call at
 * build time, execution in data and timing modes, runtime shape checks
 * and their messages, the shape program against tree evaluation, static
 * storage caching, graph capture/replay, library dispatch equivalence,
 * and the per-executable kernel program cache.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <set>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "op/ops.h"
#include "shape/block_builder.h"
#include "tir/analysis.h"
#include "tir/interpreter.h"
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
        std::vector<PricedArg> priced(args.begin(), args.end());
        return kernel->cost(priced, {}, spec);
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

    // Padded bucket bindings: phantom rows past the live extent read as
    // zeros and must price nothing — the clamp max(cu[i+1]-cu[i], 0)
    // ignores the zero tail.
    device::KernelCost bucketed = cost_with(
        {0, 10, 2, 5, 0, 0}, {0, 4, 5, 8, 9, 0, 0}, 9);
    EXPECT_DOUBLE_EQ(bucketed.flops, packed.flops);

    // Priced views of the live tensors at those padded shapes read the
    // same zero tail without copying anything.
    NDArray lens = NDArray::fromVector({4}, DataType::i64(), mix_lens);
    NDArray cu = NDArray::fromVector({5}, DataType::i64(), mix_cu);
    NDArray q = NDArray::metaOnly({1, h, 9, d}, DataType::f16());
    NDArray pool = NDArray::metaOnly({pages, h, c, d}, DataType::f16());
    NDArray table = NDArray::metaOnly({6, w}, DataType::i64());
    const int64_t lens_shape[] = {6}, cu_shape[] = {7};
    std::vector<PricedArg> views{
        PricedArg(q),        PricedArg(pool),
        PricedArg(pool),     PricedArg(lens, lens_shape, 1),
        PricedArg(cu, cu_shape, 1), PricedArg(table),
        PricedArg(q)};
    EXPECT_EQ(views[3].numel(), 6);
    EXPECT_EQ(views[3].at(1), 10.0);
    EXPECT_EQ(views[3].at(4), 0.0);
    EXPECT_EQ(views[4].at(6), 0.0);
    device::KernelCost viewed = kernel->cost(views, {}, spec);
    EXPECT_DOUBLE_EQ(viewed.flops, bucketed.flops);
    EXPECT_DOUBLE_EQ(viewed.bytes, bucketed.bytes);

    // A padded matrix keeps each live element at its row and column.
    NDArray live = NDArray::fromVector({2, 2}, DataType::i64(), {1, 2, 3, 4});
    const int64_t padded_shape[] = {3, 3};
    PricedArg matrix(live, padded_shape, 2);
    std::vector<double> elements;
    for (int64_t i = 0; i < matrix.numel(); ++i) {
        elements.push_back(matrix.at(i));
    }
    EXPECT_EQ(elements, (std::vector<double>{1, 2, 0, 3, 4, 0, 0, 0, 0}));
}

/** The message of the ShapeError `fn` throws; empty when none. */
std::string
shapeErrorOf(const std::function<void()>& fn)
{
    try {
        fn();
    } catch (const ShapeError& e) {
        return e.what();
    }
    return "";
}

/** Bucket ceiling of a symbolic value (the VM's graph-signature rule). */
int64_t
ceilingOf(int64_t value, int64_t block)
{
    int64_t pow2 = 1;
    while (pow2 < value) pow2 *= 2;
    return std::min((value + block - 1) / block * block, pow2);
}

/** Every shape expression an instruction carries. */
std::vector<const ShapeExpr*>
shapeExprs(const Instr& instr)
{
    std::vector<const ShapeExpr*> exprs;
    for (const auto& check : instr.checks) exprs.push_back(&check.second);
    if (instr.sizeExpr.source) exprs.push_back(&instr.sizeExpr);
    for (const ShapeExpr& dim : instr.shape) exprs.push_back(&dim);
    for (const ShapeExpr& expr : instr.symExprs) exprs.push_back(&expr);
    for (const auto& shape : instr.argShapes) {
        for (const ShapeExpr& dim : shape) exprs.push_back(&dim);
    }
    return exprs;
}

/**
 * A library argument at a padded shape the way the tree-walking VM
 * priced it: integer host data copied into the prefix of a zero-filled
 * tensor, anything else metadata-only.
 */
NDArray
paddedStandIn(const NDArray& array, const std::vector<int64_t>& shape)
{
    bool host = array.hasData() &&
                (array.dtype().isInt() || array.dtype().isUInt());
    if (!host) return NDArray::metaOnly(shape, array.dtype());
    NDArray padded = NDArray::zeros(shape, array.dtype());
    std::vector<int64_t> index(array.shape().size(), 0);
    for (int64_t flat = 0; flat < array.numel(); ++flat) {
        padded.set(padded.flatten(index), array.at(flat));
        for (size_t d = index.size(); d-- > 0;) {
            if (++index[d] < array.shape()[d]) break;
            index[d] = 0;
        }
    }
    return padded;
}

/**
 * What the tree-walking VM charged for each launch of one timing-mode
 * call of `fn` (in launch order): every shape evaluated with evalInt,
 * every generated kernel bound by tir::bindShapes, and, inside a bucketed
 * graph region, a kernel variable that is a padded function symbol priced
 * at its bucket ceiling.
 */
std::vector<device::KernelCost>
treeWalkingCosts(const Executable& exec, const VMFunction& fn,
                 const std::vector<Value>& args,
                 const device::DeviceSpec& spec)
{
    std::vector<device::KernelCost> costs;
    std::vector<Value> regs(fn.numRegs);
    std::copy(args.begin(), args.end(), regs.begin());
    VarBinding live, padded;
    auto tensor = [&](RegIndex reg) { return std::get<NDArray>(regs[reg]); };
    for (const Instr& instr : fn.instrs) {
        switch (instr.op) {
          case Instr::Op::kMatchShape:
            for (const auto& [dim, slot] : instr.binds) {
                live[fn.shapes.slots()[slot].get()] =
                    tensor(instr.args[0]).shape()[dim];
            }
            break;
          case Instr::Op::kAllocTensor: {
            std::vector<int64_t> shape;
            for (const ShapeExpr& dim : instr.shape) {
                shape.push_back(evalInt(dim.source, live));
            }
            regs[instr.dst] = NDArray::metaOnly(shape, instr.dtype);
            break;
          }
          case Instr::Op::kGraphBegin:
            for (const auto& [v, value] : live) {
                int64_t ceiling = ceilingOf(value, instr.bucketBlock);
                if (ceiling != value) padded[v] = ceiling;
            }
            break;
          case Instr::Op::kGraphEnd:
            padded.clear();
            break;
          case Instr::Op::kLoadConst:
            regs[instr.dst] = instr.constant;
            break;
          case Instr::Op::kRebind:
            regs[instr.dst] = regs[instr.args[0]];
            break;
          case Instr::Op::kMakeTuple: {
            auto tuple = std::make_shared<TupleValue>();
            for (RegIndex reg : instr.args) tuple->fields.push_back(regs[reg]);
            regs[instr.dst] = tuple;
            break;
          }
          case Instr::Op::kGetItem:
            regs[instr.dst] = std::get<TupleValuePtr>(regs[instr.args[0]])
                                  ->fields.at(instr.index);
            break;
          case Instr::Op::kPackedCall:
            ADD_FAILURE() << "no builtin expected in " << fn.name;
            break;
          case Instr::Op::kKernelCall: {
            std::vector<NDArray> call_args;
            for (RegIndex reg : instr.args) call_args.push_back(tensor(reg));
            if (instr.library) {
                VarBinding at = live;
                for (const auto& [v, value] : padded) at[v] = value;
                std::vector<NDArray> stand_ins;
                for (size_t i = 0; i < call_args.size(); ++i) {
                    std::vector<int64_t> shape;
                    for (const ShapeExpr& dim : instr.argShapes[i]) {
                        shape.push_back(evalInt(dim.source, at));
                    }
                    stand_ins.push_back(
                        padded.empty() || shape.empty() ||
                                shape == call_args[i].shape()
                            ? call_args[i]
                            : paddedStandIn(call_args[i], shape));
                }
                std::vector<PricedArg> priced(stand_ins.begin(),
                                              stand_ins.end());
                costs.push_back(instr.library->cost(priced, *instr.attrs,
                                                    spec));
                break;
            }
            const tir::PrimFunc& func = exec.kernels[instr.kernel].func;
            std::vector<int64_t> sym_args;
            for (const ShapeExpr& expr : instr.symExprs) {
                sym_args.push_back(evalInt(expr.source, live));
            }
            VarBinding binding = tir::bindShapes(func, call_args, sym_args);
            for (auto& [v, value] : binding) {
                if (padded.count(v)) value = padded.at(v);
            }
            tir::TensorProgramCost cost = tir::analyzeCost(func);
            device::KernelCost kernel_cost;
            kernel_cost.flops = (double)evalInt(cost.flops, binding);
            kernel_cost.bytes = (double)evalInt(cost.bytes, binding);
            auto attr = func->attrs.find(tir::kComputePatternAttr);
            tir::PatternKind kind =
                attr != func->attrs.end()
                    ? tir::patternKindFromName(attr->second)
                    : tir::analyzePatternKind(func);
            bool has_fma = kind == tir::PatternKind::kOutputEwiseFusible ||
                           (kernel_cost.bytes > 0 &&
                            kernel_cost.flops / kernel_cost.bytes > 16.0);
            int64_t rows = 1;
            const tir::Buffer& out = func->params.back();
            for (size_t d = 0; d + 1 < out->shape.size(); ++d) {
                rows *= evalInt(out->shape[d], binding);
            }
            kernel_cost.efficiency = !has_fma    ? spec.genElemwiseEfficiency
                                     : rows <= 1 ? spec.genGemvEfficiency
                                                 : spec.genGemmEfficiency;
            costs.push_back(kernel_cost);
            break;
          }
          default:
            break;
        }
    }
    return costs;
}

/** A numeric arg of a trace event. */
double
traceArg(const TraceRecorder::Event& event, const std::string& key)
{
    for (const TraceArg& arg : event.args) {
        if (arg.key == key) {
            return arg.kind == TraceArg::Kind::kInt ? (double)arg.i : arg.d;
        }
    }
    ADD_FAILURE() << event.name << " has no arg " << key;
    return 0.0;
}

/** A random integer expression over `vars` of depth at most `depth`. */
PrimExpr
randomExpr(std::mt19937& rng, const std::vector<SymVar>& vars, int depth)
{
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 19 : 2);
    PrimExpr a, b;
    auto sub_expr = [&] { return randomExpr(rng, vars, depth - 1); };
    switch (int kind = pick(rng)) {
      case 0: return intImm((int64_t)(rng() % 7) - 3);
      case 1: return vars[rng() % vars.size()];
      case 2: return var("unbound");
      case 3: return select(sub_expr(), sub_expr(), sub_expr());
      case 4: return logicalNot(sub_expr());
      case 5: return cast(sub_expr(), DataType::i32());
      default: {
        a = sub_expr();
        b = sub_expr();
        switch (kind) {
          case 6: return add(a, b);
          case 7: return sub(a, b);
          case 8: return mul(a, b);
          case 9: return div(a, b);
          case 10: return floordiv(a, b);
          case 11: return floormod(a, b);
          case 12: return minExpr(a, b);
          case 13: return maxExpr(a, b);
          case 14: return eq(a, b);
          case 15: return lt(a, b);
          case 16: return ge(a, b);
          case 17: return logicalAnd(a, b);
          case 18: return logicalOr(a, b);
          default: return ne(a, b);
        }
      }
    }
}

TEST(VMTest, ShapeProgramFollowsTryEvalInt)
{
    // Random expressions with every operator the program compiles,
    // division by zero, unbound variables and selects whose untaken arm
    // fails: the value, or the failure, matches tryEvalInt's.
    std::mt19937 rng(17);
    std::vector<SymVar> vars{var("a"), var("b")};
    ShapeProgram program({vars.begin(), vars.end()});
    ShapeProgram::Compiler compiler(program);
    std::vector<std::pair<PrimExpr, int32_t>> compiled;
    for (int i = 0; i < 300; ++i) {
        PrimExpr expr = randomExpr(rng, vars, 4);
        compiled.emplace_back(expr, compiler.compile(expr));
    }
    int failures = 0;
    for (int64_t a = -3; a <= 3; ++a) {
        for (int64_t b = -3; b <= 3; ++b) {
            std::vector<int64_t> regs = program.registers();
            regs[0] = a;
            regs[1] = b;
            VarBinding binding{{vars[0].get(), a}, {vars[1].get(), b}};
            for (const auto& [expr, id] : compiled) {
                std::optional<int64_t> expected = tryEvalInt(expr, binding);
                failures += !expected;
                EXPECT_EQ(program.tryEval(id, regs.data()), expected)
                    << relax::toString(expr) << " a=" << a << " b=" << b;
            }
        }
    }
    EXPECT_GT(failures, 0);
}

TEST(VMTest, ShapeProgramMatchesEvalInt)
{
    // The shape program is the compiled form of every symbolic expression
    // the VM evaluates. For the tiny Llama's served function and its
    // prefill, at several live bindings and at the bucket-padded binding
    // of a graph region, every value it yields must equal evalInt on the
    // same binding; and every launch must charge what evalInt and
    // tir::bindShapes price: flops, bytes and the gemv row rule (seen in
    // the launch latency).
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"b", 8}, {"n", 64}};
    options.graphBucketTokens = 16;
    ExecutablePtr exec =
        frontend::compile(frontend::buildLlama(config), options);
    std::vector<NDArray> weights =
        frontend::makeLlamaWeights(config, /*with_data=*/false);
    const int64_t page = 4, pages = 16;

    struct Case
    {
        const char* function;
        int64_t b, n, w;
    };
    const Case cases[] = {
        {"decode_ragged", 1, 1, 1}, {"decode_ragged", 3, 3, 2},
        {"decode_ragged", 5, 9, 3}, {"decode_ragged", 8, 37, 4},
        {"prefill", 1, 5, 0},       {"prefill", 2, 17, 0},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(std::string(c.function) + " b=" + std::to_string(c.b) +
                     " n=" + std::to_string(c.n));
        const VMFunction& fn = exec->functions.at(c.function);
        std::vector<Value> args;
        bool ragged = std::string(c.function) == "decode_ragged";
        if (ragged) {
            // Row r holds 2r + 1 tokens; the fresh tokens split as evenly
            // as the rows allow.
            std::vector<double> lens, cu{0};
            for (int64_t r = 0; r < c.b; ++r) {
                lens.push_back((double)(2 * r + 1));
                cu.push_back((double)((r + 1) * c.n / c.b));
            }
            args.emplace_back(NDArray::metaOnly({1, c.n}, DataType::i64()));
            args.emplace_back(
                NDArray::fromVector({c.b}, DataType::i64(), lens));
            args.emplace_back(
                NDArray::fromVector({c.b + 1}, DataType::i64(), cu));
            args.emplace_back(NDArray::metaOnly({c.b, c.w}, DataType::i64()));
            for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
                args.emplace_back(NDArray::metaOnly(
                    {pages, config.numHeads, page, config.headDim},
                    DataType::f16()));
            }
        } else {
            args.emplace_back(NDArray::metaOnly({c.b, c.n}, DataType::i64()));
        }
        for (const NDArray& w : weights) args.emplace_back(w);

        // The symbols at their live values, and padded as a region pads
        // them.
        std::map<std::string, int64_t> values{
            {"b", c.b}, {"n", c.n}, {"w", c.w}, {"p", pages}, {"c", page}};
        VarBinding live, padded;
        std::vector<int64_t> live_regs = fn.shapes.registers();
        std::vector<int64_t> padded_regs = fn.shapes.registers();
        bool has_region = false;
        for (const Instr& instr : fn.instrs) {
            has_region |= instr.op == Instr::Op::kGraphBegin;
        }
        ASSERT_TRUE(has_region) << "no graph region to pad";
        for (size_t slot = 0; slot < fn.shapes.slots().size(); ++slot) {
            const ::relax::VarNode* v = fn.shapes.slots()[slot].get();
            ASSERT_TRUE(values.count(v->name)) << v->name;
            live[v] = live_regs[slot] = values.at(v->name);
            padded[v] = padded_regs[slot] = ceilingOf(values.at(v->name), 16);
        }
        for (const Instr& instr : fn.instrs) {
            for (const ShapeExpr* expr : shapeExprs(instr)) {
                EXPECT_EQ(fn.shapes.tryEval(expr->id, live_regs.data()),
                          tryEvalInt(expr->source, live))
                    << relax::toString(expr->source);
                EXPECT_EQ(fn.shapes.tryEval(expr->id, padded_regs.data()),
                          tryEvalInt(expr->source, padded))
                    << relax::toString(expr->source);
            }
        }

        // Every launch of a real call against the tree-walking prices.
        auto dev = std::make_shared<device::SimDevice>(options.device);
        dev->trace().enable();
        VirtualMachine machine(exec, dev, /*data_mode=*/false);
        machine.invoke(c.function, args);
        EXPECT_GT(machine.lastRunStats().graphBegins, 0);
        std::vector<device::KernelCost> expected =
            treeWalkingCosts(*exec, fn, args, options.device);
        size_t launch = 0;
        for (const TraceRecorder::Event& event : dev->trace().events()) {
            if (event.cat != "kernel") continue;
            ASSERT_LT(launch, expected.size());
            const device::KernelCost& cost = expected[launch++];
            EXPECT_EQ(traceArg(event, "flops"), cost.flops) << event.name;
            EXPECT_EQ(traceArg(event, "bytes"), cost.bytes) << event.name;
            // The same cost on a device with this launch's overhead
            // takes exactly this launch's latency.
            device::DeviceSpec spec = options.device;
            spec.kernelLaunchUs = traceArg(event, "launch_us");
            EXPECT_EQ(device::SimDevice(spec).launchKernel(cost), event.dur)
                << event.name;
        }
        EXPECT_EQ(launch, expected.size());
    }
}

/** main(x: `shape`, y: `other`) = exp(x), compiled for the host. */
ExecutablePtr
expModule(const std::vector<PrimExpr>& shape,
          const std::vector<PrimExpr>& other)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    Var x = makeVar("x", tensorSInfo(shape, DataType::f32()));
    Var y = makeVar("y", tensorSInfo(other, DataType::f32()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(op::exp(x));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, y}, builder.finish(out),
                                             out->structInfo()));
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    return frontend::compile(module, options);
}

TEST(VMTest, FailingCompositeMatchCheckKeepsItsMessage)
{
    SymVar n = var("n");
    PrimExpr twice = mul(n, intImm(2));
    ExecutablePtr exec = expModule({n, twice}, {intImm(1)});
    VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);
    std::string message = shapeErrorOf([&] {
        machine.invoke("main", {NDArray::zeros({3, 5}, DataType::f32()),
                                NDArray::zeros({1}, DataType::f32())});
    });
    EXPECT_EQ(message, "ShapeError: main: runtime shape check failed: "
                       "dim 1 expected " +
                           relax::toString(twice) + " = 6, got 5");
}

TEST(VMTest, KernelArgumentMismatchKeepsTheBindShapesMessage)
{
    // exp's kernel reads x; pointing its call at y instead hands it a
    // tensor whose rank, or whose bound variable, disagrees with the
    // kernel's. The VM must raise exactly what tir::bindShapes raises.
    SymVar n = var("n"), m = var("m");
    struct Case
    {
        std::vector<PrimExpr> other;
        std::vector<int64_t> otherShape;
        const char* what;
    };
    const Case cases[] = {
        {{m, intImm(4)}, {3, 4}, "inconsistent binding"},
        {{m, intImm(4), intImm(1)}, {2, 4, 1}, "rank mismatch"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.what);
        ExecutablePtr exec = expModule({n, intImm(4)}, c.other);
        VMFunction& fn = exec->functions.at("main");
        auto call = std::find_if(fn.instrs.begin(), fn.instrs.end(),
                                 [](const Instr& instr) {
                                     return instr.op ==
                                            Instr::Op::kKernelCall;
                                 });
        ASSERT_NE(call, fn.instrs.end());
        call->args[0] = 1; // y's register

        NDArray x = NDArray::zeros({2, 4}, DataType::f32());
        NDArray y = NDArray::zeros(c.otherShape, DataType::f32());
        VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);
        std::string message =
            shapeErrorOf([&] { machine.invoke("main", {x, y}); });
        std::string expected = shapeErrorOf([&] {
            tir::bindShapes(exec->kernels[call->kernel].func,
                            {y, NDArray::zeros({2, 4}, DataType::f32())},
                            {});
        });
        EXPECT_NE(expected.find(c.what), std::string::npos) << expected;
        EXPECT_EQ(message, expected);
    }
}

TEST(VMTest, ShapeDivisionByZeroKeepsTheEvalIntMessage)
{
    SymVar n = var("n");
    PrimExpr quotient = floordiv(intImm(8), n);
    ExecutablePtr exec = expModule({n, quotient}, {intImm(1)});
    VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);
    std::string message = shapeErrorOf([&] {
        machine.invoke("main", {NDArray::zeros({0, 3}, DataType::f32()),
                                NDArray::zeros({1}, DataType::f32())});
    });
    std::string expected =
        shapeErrorOf([&] { evalInt(quotient, {{n.get(), 0}}); });
    EXPECT_NE(expected.find("cannot evaluate"), std::string::npos);
    EXPECT_EQ(message, expected);
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
