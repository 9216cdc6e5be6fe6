/**
 * @file
 * Tests for the alias/liveness analysis, the automatic in-place planner
 * built on it, the VerifyAliasSafety lint, and the VM's differential
 * instrumentation mode (RELAX_ALIAS_CHECK).
 *
 * Coverage called out by the aliasing contract (DESIGN.md §9): tuple
 * outputs and projections in the may-alias lattice, symbolic-size
 * equality reuse agreeing with the alias facts, a candidate var still
 * live past the call site (must not rewrite), a non-donated pool
 * parameter standing in for a shared page pool (must not rewrite),
 * automatic rediscovery of the frontend's KV-append sites, and the
 * alloc-shrink of captured decode regions.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "device/device.h"
#include "frontend/compile.h"
#include "frontend/llama.h"
#include "op/ops.h"
#include "passes/alias_analysis.h"
#include "passes/passes.h"
#include "shape/block_builder.h"
#include "support/error.h"
#include "vm/vm.h"

namespace relax {
namespace passes {
namespace {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

device::DeviceSpec
hostSpec(bool with_graphs = false)
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(8) << 30;
    spec.supportsExecutionGraphs = with_graphs;
    return spec;
}

/** All call bindings in the function carrying an inplace_arg attr. */
std::vector<const CallNode*>
inplaceCallsOf(const Function& func)
{
    std::vector<const CallNode*> calls;
    const auto* seq = static_cast<const SeqExprNode*>(func->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            if (binding.value->kind() != RxKind::kCall) continue;
            const auto* call =
                static_cast<const CallNode*>(binding.value.get());
            if (call->attrs.count("inplace_arg")) calls.push_back(call);
        }
    }
    return calls;
}

/** The TIR callee name of a call_tir site ("" when not a call_tir). */
std::string
tirCalleeOf(const CallNode* call)
{
    if (call->args.empty() ||
        call->args[0]->kind() != RxKind::kGlobalVar) {
        return "";
    }
    return static_cast<const GlobalVarNode*>(call->args[0].get())->name;
}

/** Number of call bindings anywhere in the module carrying inplace_arg. */
int
countInplaceAttrs(const IRModulePtr& module)
{
    int count = 0;
    for (const auto& [name, func] : module->functions()) {
        if (!func->body || func->body->kind() != RxKind::kSeqExpr) continue;
        const auto* seq = static_cast<const SeqExprNode*>(func->body.get());
        for (const auto& block : seq->blocks) {
            for (const auto& binding : block->bindings) {
                if (binding.value->kind() != RxKind::kCall) continue;
                const auto* call =
                    static_cast<const CallNode*>(binding.value.get());
                count += call->attrs.count("inplace_arg");
            }
        }
    }
    return count;
}

// ---------------------------------------------------------------------------
// The may-alias lattice
// ---------------------------------------------------------------------------

TEST(AliasAnalysisTest, TupleOutputsProjectPerFieldAliasFacts)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));       // 0: fresh root A
    Var lv1 = builder.emit(op::relu(x));      // 1: fresh root B
    Var t = builder.emit(makeTuple({lv0, lv1}), "t");    // 2
    Var p0 = builder.emit(makeTupleGetItem(t, 0), "p0"); // 3
    Var p1 = builder.emit(makeTupleGetItem(t, 1), "p1"); // 4
    Var out = builder.emitOutput(op::add(p0, lv1));      // 5
    builder.endBlock();
    Function func = makeFunction({x}, builder.finish(out),
                                 out->structInfo());
    module->addFunction("main", func);

    AliasLivenessAnalysis analysis(func);
    const AliasState& state = analysis.state();
    // Projections resolve to the field's roots, not the whole tuple.
    EXPECT_TRUE(state.mayAlias(p0.get(), lv0.get()));
    EXPECT_TRUE(state.mayAlias(p1.get(), lv1.get()));
    EXPECT_FALSE(state.mayAlias(p0.get(), p1.get()));
    EXPECT_FALSE(state.mayAlias(p0.get(), lv1.get()));
    // The tuple itself may alias both fields.
    EXPECT_TRUE(state.mayAlias(t.get(), lv0.get()));
    EXPECT_TRUE(state.mayAlias(t.get(), lv1.get()));
    // Params never alias fresh allocations.
    EXPECT_FALSE(state.mayAlias(x.get(), lv0.get()));

    // Liveness through the projection chain: lv0's storage is read via
    // p0 at the add (index 5), even though lv0 itself is last mentioned
    // at the tuple build (index 2).
    EXPECT_EQ(analysis.lastDirectUse(lv0.get()), 2u);
    EXPECT_EQ(analysis.lastLiveIndex(lv0.get()), 5u);
    // The body returns `out` (index 6 = bodyIndex).
    EXPECT_EQ(analysis.lastLiveIndex(out.get()), analysis.bodyIndex());
}

// ---------------------------------------------------------------------------
// The in-place planner
// ---------------------------------------------------------------------------

TEST(AliasAnalysisTest, RewritesDeadInputAndSkipsLiveInput)
{
    // z = exp(x); w = relu(z); out = add(w, z)
    //  - at `w`, candidate z is still live (read by the add) -> no
    //    rewrite, exactly the "var live across the downstream capture
    //    boundary" shape: a later region still reads it;
    //  - at `out`, candidate w is dead -> rewritten in place.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var z = builder.emit(op::exp(x), "z");
    Var w = builder.emit(op::relu(z), "w");
    Var out = builder.emitOutput(op::add(w, z), "out");
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));

    module = legalizeOpsPass().run(module);
    module = inplacePlanPass().run(module);

    Function main_fn = module->getFunction("main");
    auto inplace_calls = inplaceCallsOf(main_fn);
    ASSERT_EQ(inplace_calls.size(), 1u)
        << "expected exactly the add rewritten (relu's input stays live)";
    // The surviving rewrite is the add, onto its dead first input w.
    EXPECT_NE(tirCalleeOf(inplace_calls[0]).find("add"),
              std::string::npos)
        << "rewrote '" << tirCalleeOf(inplace_calls[0])
        << "' instead of the add";
    EXPECT_EQ(std::get<int64_t>(inplace_calls[0]->attrs.at("inplace_arg")),
              0);
    EXPECT_EQ(main_fn->attrs.at("inplace.rewrites"), "1");
}

TEST(AliasAnalysisTest, ShapeMismatchAndConstantsAreNeverRewritten)
{
    // permute writes transposed indices (not element-aligned) and its
    // output shape differs; matmul reduces. Neither may go in place.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var wgt = makeVar("wgt", tensorSInfo({intImm(4), intImm(4)},
                                         DataType::f32()));
    builder.beginDataflowBlock();
    Var z = builder.emit(op::exp(x), "z");
    Var t = builder.emit(op::permuteDims(z, {1, 0}), "t");
    Var back = builder.emit(op::permuteDims(t, {1, 0}), "back");
    Var out = builder.emitOutput(op::matmul(back, wgt), "out");
    builder.endBlock();
    module->addFunction("main", makeFunction({x, wgt},
                                             builder.finish(out),
                                             out->structInfo()));
    module = legalizeOpsPass().run(module);
    module = inplacePlanPass().run(module);
    EXPECT_EQ(countInplaceAttrs(module), 0);
    EXPECT_EQ(module->getFunction("main")->attrs.at("inplace.rewrites"),
              "0");
}

TEST(AliasAnalysisTest, NonDonatedPoolParamIsPinned)
{
    // A page-pool append whose pool argument is a function parameter:
    // without donation the storage may be shared with other holders
    // (or owned by the caller outright), so the planner must
    // not write through it. With the frontend's donation attr the same
    // site is rewritten.
    auto build = [](bool donate) {
        auto module = IRModule::create();
        shape::BlockBuilder builder(module);
        StructInfo pool_info = tensorSInfo(
            {intImm(8), intImm(2), intImm(4), intImm(4)}, DataType::f32());
        Var pool = makeVar("pool", pool_info);
        Var fresh = makeVar("fresh", tensorSInfo({intImm(3), intImm(2),
                                                  intImm(4)},
                                                 DataType::f32()));
        Var lens = makeVar("lens", tensorSInfo({intImm(2)},
                                               DataType::i64()));
        Var cu = makeVar("cu", tensorSInfo({intImm(3)}, DataType::i64()));
        Var table = makeVar("table", tensorSInfo({intImm(2), intImm(4)},
                                                 DataType::i64()));
        builder.beginDataflowBlock();
        Var appended = builder.emitOutput(
            callDPSLibrary("kv.append_ragged",
                           {pool, fresh, lens, cu, table}, pool_info),
            "appended");
        builder.endBlock();
        Function func = makeFunction({pool, fresh, lens, cu, table},
                                     builder.finish(appended),
                                     appended->structInfo());
        if (donate) func->attrs["donatable_params"] = "pool";
        module->addFunction("main", func);
        return inplacePlanPass().run(module);
    };

    EXPECT_EQ(countInplaceAttrs(build(/*donate=*/false)), 0)
        << "wrote through a pool the function does not own";
    EXPECT_EQ(countInplaceAttrs(build(/*donate=*/true)), 1);
}

TEST(AliasAnalysisTest, RediscoversKVAppendSitesAutomatically)
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    IRModulePtr module = frontend::buildLlama(config);
    // The frontend emits plain DPS calls: zero hand-placed attrs.
    EXPECT_EQ(countInplaceAttrs(module), 0);

    frontend::CompileOptions options;
    options.device = hostSpec();
    options.bounds = {{"b", 4}, {"n", 32}, {"m", 64}};
    auto exec = frontend::compile(module, options);

    // Both KV-append sites per layer come back as in-place kernel calls.
    int64_t inplace_appends = 0;
    for (const auto& instr : exec->functions.at("decode_ragged").instrs) {
        if (instr.op == vm::Instr::Op::kKernelCall &&
            instr.callee == "kv.append_ragged" &&
            instr.attrs->count("inplace_arg")) {
            ++inplace_appends;
        }
    }
    EXPECT_EQ(inplace_appends, 2 * config.numLayers);

    // Site classes beyond the library append: the residual adds and the
    // elementwise epilogues rewrite through the TIR safety check, so the
    // planner's callee log names at least three distinct kernel classes.
    Function decode = exec->module->getFunction("decode_ragged");
    ASSERT_NE(decode, nullptr);
    ASSERT_TRUE(decode->attrs.count("inplace.callees"))
        << "planner recorded no rewritten callees";
    const std::string& callees = decode->attrs.at("inplace.callees");
    std::set<std::string> classes;
    std::stringstream stream(callees);
    for (std::string name; std::getline(stream, name, ';');) {
        classes.insert(name);
    }
    EXPECT_EQ(classes.count("kv.append_ragged"), 1u) << callees;
    EXPECT_GE(classes.size(), 3u)
        << "fewer than 3 distinct rewrite site classes: " << callees;
}

TEST(AliasAnalysisTest, CapturedDecodeRegionsShedAllocs)
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = hostSpec(/*with_graphs=*/true);
    options.bounds = {{"b", 4}, {"n", 32}, {"m", 64}};
    options.graphBucketTokens = 4;
    frontend::CompileOptions no_planning = options;
    no_planning.enableInplacePlanning = false;

    struct DecodeShape
    {
        int64_t allocs = 0;
        int64_t graphRegions = 0;
    };
    auto shape_of = [](const vm::ExecutablePtr& exec) {
        DecodeShape shape;
        for (const auto& instr : exec->functions.at("decode_ragged").instrs) {
            shape.allocs += instr.op == vm::Instr::Op::kAllocTensor;
            shape.graphRegions += instr.op == vm::Instr::Op::kGraphBegin;
        }
        return shape;
    };

    DecodeShape with = shape_of(
        frontend::compile(frontend::buildLlama(config), options));
    DecodeShape without = shape_of(
        frontend::compile(frontend::buildLlama(config), no_planning));
    // Every rewrite sheds one alloc_tensor: >= 3 site classes over 2
    // layers means a substantial drop, not an off-by-one.
    EXPECT_LE(with.allocs + 2 * config.numLayers, without.allocs)
        << "in-place planning did not shed alloc_tensor instructions "
        << "from the decode path (with=" << with.allocs
        << " without=" << without.allocs << ")";
    // The un-planned decode allocates pool-sized append outputs, which
    // keeps the region out of graph capture entirely; the planned one
    // must still capture.
    EXPECT_GT(with.graphRegions, 0);
}

// ---------------------------------------------------------------------------
// Planner/verifier agreement
// ---------------------------------------------------------------------------

TEST(AliasAnalysisTest, SymbolicSizeEqualityReusePassesVerifier)
{
    // Figure 10 chain with in-place planning in the pipeline: relu goes
    // in place onto the (n,2) transpose, the final (2,n) transpose
    // output reuses the freed exp storage (8n bytes == 8n bytes, proved
    // symbolically), and the planned module satisfies the aliasing
    // contract.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({intImm(2), n}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var lv1 = builder.emit(op::permuteDims(lv0, {1, 0}));
    Var lv2 = builder.emit(op::relu(lv1));
    Var lv3 = builder.emitOutput(op::permuteDims(lv2, {1, 0}));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(lv3),
                                             lv3->structInfo()));

    module = legalizeOpsPass().run(module);
    module = inplacePlanPass().run(module);
    module = lowerCallTIRPass().run(module);
    module = staticMemoryPlanPass().run(module);

    Function main_fn = module->getFunction("main");
    EXPECT_EQ(main_fn->attrs.at("inplace.rewrites"), "1");
    EXPECT_EQ(main_fn->attrs.at("planned.num_storages"), "2");
    EXPECT_EQ(main_fn->attrs.at("planned.reuse_hits"), "1");
    EXPECT_NO_THROW(verifyAliasSafety(module));

    MemoryPlanReport report = memoryPlanReport(module);
    EXPECT_EQ(report.storagesAllocated, 2);
    EXPECT_EQ(report.reuseHits, 1);
    EXPECT_EQ(report.inplaceWrites, 1);
}

TEST(AliasAnalysisTest, VerifierRejectsStorageReuseWhileLive)
{
    // Hand-built ill-formed plan: two instantiations of one storage with
    // overlapping live ranges (t0 is read after t1 is created).
    auto module = IRModule::create();
    StructInfo tinfo = tensorSInfo({intImm(4)}, DataType::f32());
    Var s = makeVar("s", objectSInfo());
    Var t0 = makeVar("t0", tinfo);
    Var t1 = makeVar("t1", tinfo);
    Var out = makeVar("out", tinfo);

    Call alloc_s = makeCall(getOp("relax.memory.alloc_storage"),
                            {makePrimValue(intImm(16))});
    alloc_s->setStructInfo(objectSInfo());
    Call alloc_t0 =
        makeCall(getOp("relax.memory.alloc_tensor"), {s}, {}, {tinfo});
    alloc_t0->setStructInfo(tinfo);
    Call alloc_t1 =
        makeCall(getOp("relax.memory.alloc_tensor"), {s}, {}, {tinfo});
    alloc_t1->setStructInfo(tinfo);
    Call use = op::add(t0, t1); // t0 read after t1's storage reuse
    use->setStructInfo(tinfo);

    auto block = std::make_shared<BindingBlockNode>(false);
    block->bindings.push_back({s, alloc_s, false, nullptr});
    block->bindings.push_back({t0, alloc_t0, false, nullptr});
    block->bindings.push_back({t1, alloc_t1, false, nullptr});
    block->bindings.push_back({out, use, false, nullptr});
    Function func =
        makeFunction({}, makeSeqExpr({block}, out), tinfo);
    module->addFunction("main", func);

    EXPECT_THROW(verifyAliasSafety(module), IRError);
}

TEST(AliasAnalysisTest, VerifierAcceptsDisjointStorageReuse)
{
    // The legal version: t0's last use precedes t1's creation.
    auto module = IRModule::create();
    StructInfo tinfo = tensorSInfo({intImm(4)}, DataType::f32());
    Var s = makeVar("s", objectSInfo());
    Var t0 = makeVar("t0", tinfo);
    Var mid = makeVar("mid", tinfo);
    Var t1 = makeVar("t1", tinfo);

    Call alloc_s = makeCall(getOp("relax.memory.alloc_storage"),
                            {makePrimValue(intImm(16))});
    alloc_s->setStructInfo(objectSInfo());
    Call alloc_t0 =
        makeCall(getOp("relax.memory.alloc_tensor"), {s}, {}, {tinfo});
    alloc_t0->setStructInfo(tinfo);
    Call use0 = op::relu(t0);
    use0->setStructInfo(tinfo);
    Call alloc_t1 =
        makeCall(getOp("relax.memory.alloc_tensor"), {s}, {}, {tinfo});
    alloc_t1->setStructInfo(tinfo);

    auto block = std::make_shared<BindingBlockNode>(false);
    block->bindings.push_back({s, alloc_s, false, nullptr});
    block->bindings.push_back({t0, alloc_t0, false, nullptr});
    block->bindings.push_back({mid, use0, false, nullptr});
    block->bindings.push_back({t1, alloc_t1, false, nullptr});
    Function func = makeFunction({}, makeSeqExpr({block}, t1), tinfo);
    module->addFunction("main", func);

    EXPECT_NO_THROW(verifyAliasSafety(module));
}

// ---------------------------------------------------------------------------
// The instrumented differential mode
// ---------------------------------------------------------------------------

TEST(AliasAnalysisTest, DifferentialModeVerifiesInplaceKernels)
{
    // z = exp(x); out = add(z, x): with fusion off, z is a dead fresh
    // tensor at the add and the planner aliases the output onto it.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var z = builder.emit(op::exp(x), "z");
    Var out = builder.emitOutput(op::add(z, x), "out");
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));

    frontend::CompileOptions options;
    options.device = hostSpec();
    options.enableFusion = false;
    auto exec = frontend::compile(module, options);
    EXPECT_EQ(countInplaceAttrs(exec->module), 1);

    setenv("RELAX_ALIAS_CHECK", "1", 1);
    int64_t before = vm::aliasChecksPerformed();
    vm::VirtualMachine machine(
        exec, std::make_shared<device::SimDevice>(hostSpec()),
        /*data_mode=*/true);
    NDArray input = NDArray::fromVector({2, 4}, DataType::f32(),
                                        {0, 1, -1, 2, 3, -2, 0.5, 0});
    vm::Value result = machine.invoke("main", {input});
    unsetenv("RELAX_ALIAS_CHECK");

    // The aliased run and the copy-in/copy-out reference bit-matched
    // (a divergence throws), and the check actually fired.
    EXPECT_EQ(vm::aliasChecksPerformed() - before, 1);
    const NDArray& out_data = std::get<NDArray>(result);
    for (int i = 0; i < 8; ++i) {
        EXPECT_NEAR(out_data.at(i),
                    std::exp(input.at(i)) + input.at(i), 1e-6);
    }
}

TEST(AliasAnalysisTest, DifferentialModeExemptsInputsSharingTheAliasedStorage)
{
    // z = exp(x); out = add(z, z): the planner aliases the output onto z,
    // which is also the add's second input. Both inputs share the aliased
    // storage, so the aliased run overwrites both; only the outputs and
    // the inputs that do not share it may be compared.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var z = builder.emit(op::exp(x), "z");
    Var out = builder.emitOutput(op::add(z, z), "out");
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));

    frontend::CompileOptions options;
    options.device = hostSpec();
    options.enableFusion = false;
    auto exec = frontend::compile(module, options);
    EXPECT_EQ(countInplaceAttrs(exec->module), 1);

    setenv("RELAX_ALIAS_CHECK", "1", 1);
    int64_t before = vm::aliasChecksPerformed();
    vm::VirtualMachine machine(
        exec, std::make_shared<device::SimDevice>(hostSpec()),
        /*data_mode=*/true);
    NDArray input = NDArray::fromVector({2, 4}, DataType::f32(),
                                        {0, 1, -1, 2, 3, -2, 0.5, 0});
    vm::Value result;
    EXPECT_NO_THROW(result = machine.invoke("main", {input}));
    unsetenv("RELAX_ALIAS_CHECK");

    EXPECT_EQ(vm::aliasChecksPerformed() - before, 1);
    const NDArray& out_data = std::get<NDArray>(result);
    for (int i = 0; i < 8; ++i) {
        EXPECT_NEAR(out_data.at(i), 2.0 * std::exp(input.at(i)), 1e-6);
    }
}

TEST(AliasAnalysisTest, DifferentialModeCatchesARealDivergence)
{
    // out = matmul(exp(x), w) is not safe in place: each output row is
    // written while its input row is still being read. Forcing the
    // output onto the input must make the aliased run diverge from the
    // copy-in/copy-out reference, and the verifier must say so.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(4), intImm(4)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var z = builder.emit(op::exp(x), "z");
    Var out = builder.emitOutput(op::matmul(z, w), "out");
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));

    frontend::CompileOptions options;
    options.device = hostSpec();
    options.enableFusion = false;
    auto exec = frontend::compile(module, options);
    bool forced = false;
    for (auto& instr : exec->functions.at("main").instrs) {
        if (instr.op != vm::Instr::Op::kKernelCall ||
            instr.callee.find("matmul") == std::string::npos) {
            continue;
        }
        auto attrs = std::make_shared<Attrs>(*instr.attrs);
        (*attrs)["inplace_arg"] = (int64_t)0;
        instr.attrs = attrs;
        instr.args.back() = instr.args[0];
        forced = true;
    }
    ASSERT_TRUE(forced) << "no matmul kernel call";

    setenv("RELAX_ALIAS_CHECK", "1", 1);
    vm::VirtualMachine machine(
        exec, std::make_shared<device::SimDevice>(hostSpec()),
        /*data_mode=*/true);
    NDArray input = NDArray::fromVector({2, 4}, DataType::f32(),
                                        {0, 1, -1, 2, 3, -2, 0.5, 0});
    NDArray weight = NDArray::zeros({4, 4}, DataType::f32());
    for (int64_t i = 0; i < 16; ++i) weight.set(i, 0.25 * (double)(i % 5));
    std::string message;
    try {
        machine.invoke("main", {input, weight});
    } catch (const RuntimeError& e) {
        message = e.what();
    }
    unsetenv("RELAX_ALIAS_CHECK");
    EXPECT_NE(message.find("in-place output corrupted"), std::string::npos)
        << message;
}

} // namespace
} // namespace passes
} // namespace relax
