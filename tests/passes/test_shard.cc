/**
 * @file
 * ShardPass: Megatron splits on decode_ragged — column/row/vocab weight
 * division, per-shard KV pools, exactly two all-reduces per layer plus
 * one logits all-gather, full-shape results at the collective sites, and
 * clear errors for non-divisible or quantized models.
 */
#include <gtest/gtest.h>

#include <map>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "passes/passes.h"
#include "vm/vm.h"

namespace relax {
namespace passes {
namespace {

using namespace ir;
using Var = ir::Var;
using CallNode = ir::CallNode;
using frontend::LlamaConfig;

/** Collects `name -> count` of call_dps_library callees in a function. */
std::map<std::string, int>
libraryCallCounts(const Function& func)
{
    std::map<std::string, int> counts;
    const auto* seq = static_cast<const SeqExprNode*>(func->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            if (!isOpCall(binding.value, "relax.call_dps_library")) {
                continue;
            }
            const auto* call =
                static_cast<const CallNode*>(binding.value.get());
            const auto* callee =
                static_cast<const ExternFuncNode*>(call->args[0].get());
            ++counts[callee->name];
        }
    }
    return counts;
}

int64_t
literalDim(const StructInfo& sinfo, size_t dim)
{
    const auto* tensor = asTensor(sinfo);
    EXPECT_TRUE(tensor && tensor->shape);
    return *asIntImm((*tensor->shape)[dim]);
}

TEST(ShardPassTest, DividesWeightsPoolsAndInsertsCollectives)
{
    LlamaConfig config = LlamaConfig::tiny();
    IRModulePtr module = frontend::buildLlama(config);
    module = shardPass(2).run(module);

    Function func = module->getFunction("decode_ragged");
    ASSERT_TRUE(func);

    // Per-shard parameter shapes: pools halve their head axis, column
    // weights halve dim 0, row weights halve dim 1, norms replicate.
    std::map<std::string, Var> params;
    for (const auto& p : func->params) params[p->name] = p;
    EXPECT_EQ(literalDim(params.at("k_pool0")->structInfo(), 1),
              config.numHeads / 2);
    EXPECT_EQ(literalDim(params.at("v_pool1")->structInfo(), 1),
              config.numHeads / 2);
    int64_t proj = config.numHeads * config.headDim;
    EXPECT_EQ(literalDim(params.at("l0_wq")->structInfo(), 0), proj / 2);
    EXPECT_EQ(literalDim(params.at("l0_wq")->structInfo(), 1),
              config.hiddenSize);
    EXPECT_EQ(literalDim(params.at("l0_wo")->structInfo(), 0),
              config.hiddenSize);
    EXPECT_EQ(literalDim(params.at("l0_wo")->structInfo(), 1), proj / 2);
    EXPECT_EQ(literalDim(params.at("l1_w_gate")->structInfo(), 0),
              config.ffnSize / 2);
    EXPECT_EQ(literalDim(params.at("l1_w_down")->structInfo(), 1),
              config.ffnSize / 2);
    EXPECT_EQ(literalDim(params.at("lm_head")->structInfo(), 0),
              config.vocabSize / 2);
    EXPECT_EQ(literalDim(params.at("l0_attn_norm")->structInfo(), 0),
              config.hiddenSize);
    EXPECT_EQ(literalDim(params.at("tok_embeddings")->structInfo(), 0),
              config.vocabSize);

    // The sharding contract: one all-reduce after wo and one after
    // w_down per layer, one logits all-gather for the whole function.
    std::map<std::string, int> calls = libraryCallCounts(func);
    EXPECT_EQ(calls["ccl.all_reduce"], 2 * (int)config.numLayers);
    EXPECT_EQ(calls["ccl.all_gather"], 1);
    EXPECT_EQ(calls["kv.append_ragged"], 2 * (int)config.numLayers);

    // Collective outputs carry FULL shapes: the function returns the
    // complete logits while the pool outputs stay shard-local.
    const auto* ret = asTuple(func->retSInfo);
    ASSERT_TRUE(ret);
    EXPECT_EQ(literalDim(ret->fields[0], 2), config.vocabSize);
    EXPECT_EQ(literalDim(ret->fields[1], 1), config.numHeads / 2);

    // The untouched functions keep their full shapes.
    Function decode = module->getFunction("decode");
    std::map<std::string, Var> decode_params;
    for (const auto& p : decode->params) decode_params[p->name] = p;
    EXPECT_EQ(literalDim(decode_params.at("l0_wq")->structInfo(), 0),
              proj);
}

TEST(ShardPassTest, SingleShardAndAbsentFunctionAreNoOps)
{
    IRModulePtr module = frontend::buildLlama(LlamaConfig::tiny());
    Function before = module->getFunction("decode_ragged");
    module = shardPass(1).run(module);
    EXPECT_EQ(module->getFunction("decode_ragged").get(), before.get());
    EXPECT_TRUE(libraryCallCounts(before).count("ccl.all_reduce") == 0);

    IRModulePtr empty = IRModule::create();
    EXPECT_NO_THROW(shardPass(4).run(empty));
}

TEST(ShardPassTest, IndivisibleHeadCountThrows)
{
    // tiny has 2 heads: proj = 8 divides by 4 but the head reshape does
    // not — the error must name the offending dimension.
    IRModulePtr module = frontend::buildLlama(LlamaConfig::tiny());
    try {
        shardPass(4).run(module);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("not divisible by 4"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardPassTest, QuantizedModelThrows)
{
    IRModulePtr module = frontend::buildLlama(
        LlamaConfig::tiny().withQuant(frontend::Quant::kQ4));
    try {
        shardPass(2).run(module);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("no tensor-parallel"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardWeightsTest, SlicesMatchTheMegatronLayout)
{
    LlamaConfig config = LlamaConfig::tiny();
    std::vector<NDArray> full =
        frontend::makeLlamaWeights(config, /*with_data=*/true);
    std::vector<NDArray> s0 =
        frontend::shardLlamaWeights(config, full, 0, 2);
    std::vector<NDArray> s1 =
        frontend::shardLlamaWeights(config, full, 1, 2);
    ASSERT_EQ(s0.size(), full.size());

    std::vector<std::string> names;
    frontend::buildLlama(config, &names);
    int64_t proj = config.numHeads * config.headDim;
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "l0_wq") {
            // Column-parallel: shard 0 takes the first proj/2 rows.
            EXPECT_EQ(s0[i].shape()[0], proj / 2);
            EXPECT_EQ(s0[i].at(0), full[i].at(0));
            EXPECT_EQ(s1[i].at(0),
                      full[i].at(proj / 2 * config.hiddenSize));
        } else if (names[i] == "l0_wo") {
            // Row-parallel: shard 1 takes the second half of each row.
            EXPECT_EQ(s1[i].shape()[1], proj / 2);
            EXPECT_EQ(s1[i].at(0), full[i].at(proj / 2));
        } else if (names[i] == "final_norm") {
            // Replicated by handle.
            EXPECT_EQ(&s0[i].data(), &full[i].data());
        }
    }

    // Metadata-only weights slice shape-only (timing mode).
    std::vector<NDArray> meta =
        frontend::makeLlamaWeights(config, /*with_data=*/false);
    std::vector<NDArray> meta0 =
        frontend::shardLlamaWeights(config, meta, 0, 2);
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(meta0[i].hasData());
    }

    // One shard holds the full weights as given — quantized ones too.
    std::vector<NDArray> whole =
        frontend::shardLlamaWeights(config, full, 0, 1);
    ASSERT_EQ(whole.size(), full.size());
    EXPECT_EQ(&whole[0].data(), &full[0].data());
    LlamaConfig q4 = config.withQuant(frontend::Quant::kQ4);
    std::vector<NDArray> q4_full =
        frontend::makeLlamaWeights(q4, /*with_data=*/false);
    EXPECT_EQ(frontend::shardLlamaWeights(q4, q4_full, 0, 1).size(),
              q4_full.size());

    // Odd shard counts that do not divide the model throw.
    try {
        frontend::shardLlamaWeights(config, full, 0, 3);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("not divisible"),
                  std::string::npos);
    }
}

TEST(ShardPassTest, SingleVmInvokeRejectsCollectives)
{
    // A sharded executable's collectives rendezvous across a device
    // group; a lone VM has no group to meet, so invoke() must refuse the
    // first ccl.* site by name rather than run it as a local no-op.
    LlamaConfig config = LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device.name = "host";
    options.device.backend = "cpu";
    options.tensorParallel = 2;
    vm::ExecutablePtr exec =
        frontend::compile(frontend::buildLlama(config), options);

    std::vector<vm::Value> args;
    args.emplace_back(NDArray::metaOnly({1, 1}, DataType::i64()));
    args.emplace_back(NDArray::fromVector({1}, DataType::i64(), {0}));
    args.emplace_back(NDArray::fromVector({2}, DataType::i64(), {0, 1}));
    args.emplace_back(NDArray::fromVector({1, 1}, DataType::i64(), {0}));
    for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
        args.emplace_back(NDArray::metaOnly(
            {4, config.numHeads / 2, 16, config.headDim}, DataType::f16()));
    }
    for (const NDArray& w : frontend::shardLlamaWeights(
             config, frontend::makeLlamaWeights(config, false), 0, 2)) {
        args.emplace_back(w);
    }
    vm::VirtualMachine machine(
        exec, std::make_shared<device::SimDevice>(options.device),
        /*data_mode=*/false);
    try {
        machine.invoke("decode_ragged", args);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("'ccl.all_reduce'"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace passes
} // namespace relax
