/**
 * @file
 * Randomized serving oracle: seeded fuzz over request counts, prompt
 * lengths, max-tokens, KV budgets, mid-stream arrival steps, duplicated
 * prompt prefixes, and both admission policies, asserting that the
 * continuously-batched data-mode engine emits token-for-token what N
 * independent single-request greedy loops emit — with bucketed
 * execution-graph replay on and with it off. This pins the whole serve
 * stack (scheduler, page-pool KV manager with the automatic
 * prefix-caching hash index, eviction, and the ONE packed-varlen call
 * per step that carries prefill chunks and n=1 decode rows together) to
 * an end-to-end correctness invariant: no batching, paging, sharing,
 * preemption, or graph-replay decision may change tokens. A speculation
 * axis (k in {0, 2, 4}) rides on top: every scenario also runs with a
 * draft model proposing k tokens per row per step — alternating between
 * an identical draft (near-total acceptance: the all-accept + bonus
 * path) and a mismatched one (mostly rejections: the truncate-rollback
 * path) — and the token streams must STILL be identical. A tensor-
 * parallel axis (tp in {1, 2}) crosses both: every scenario also runs
 * sharded across a two-device group with lockstep collectives, and
 * sharding may not change a single token either. Structural
 * invariants ride along: decode calls == steps on every trace (mixed
 * prefill+decode steps never split into extra calls, and draft calls
 * are tallied separately), relayoutBytes == 0, and prompt-prefix
 * duplicates must hit the hash index with no fork hint from the driver.
 *
 * Seed count defaults to 40 (about 46 s in the default RelWithDebInfo
 * build on one Xeon core); set RELAX_FUZZ_SEEDS for the scheduled soak
 * (the cron workflow runs 2000).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#include "serve/engine.h"

namespace relax {
namespace serve {
namespace {

using frontend::LlamaConfig;

/** Host device that also supports execution graphs, so data-mode runs
 *  exercise bucketed capture/replay. */
device::DeviceSpec
hostSpec(bool with_graphs)
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(8) << 30;
    spec.supportsExecutionGraphs = with_graphs;
    return spec;
}

frontend::CompileOptions
fuzzOptions(bool with_graphs)
{
    frontend::CompileOptions options;
    options.device = hostSpec(with_graphs);
    // Envelope of every fuzzed trace: prompts <= 12, generated <= 8
    // (re-prefills cover prompt+generated <= 20), batch <= 8. The
    // packed token count n sums one step's fresh tokens: the 24-token
    // per-step prefill cap plus up to 8 speculating decode rows of
    // 1 + k <= 5 fresh tokens each (the verify window) stays under 96.
    options.bounds = {{"b", 8}, {"n", 96}, {"m", 48}};
    return options;
}

/**
 * Reference: one request at a time through its own VM — prefill, then
 * greedy decode until max_new, the stop token, or the context window.
 */
class SequentialOracle
{
  public:
    explicit SequentialOracle(const LlamaConfig& config)
        : config_(config),
          exec_(frontend::compile(frontend::buildLlama(config),
                                  fuzzOptions(false))),
          weights_(frontend::makeLlamaWeights(config, /*with_data=*/true))
    {
    }

    std::vector<int64_t>
    generate(const std::vector<int64_t>& prompt, int64_t max_new,
             int64_t stop_token)
    {
        // A fresh VM per request keeps runs fully independent.
        auto dev = std::make_shared<device::SimDevice>(hostSpec(false));
        vm::VirtualMachine machine(exec_, dev, /*data_mode=*/true);
        auto invoke = [&](const std::string& fn, const NDArray& ids,
                          const std::vector<NDArray>& caches) {
            std::vector<vm::Value> args{ids};
            for (const auto& c : caches) args.emplace_back(c);
            for (const auto& w : weights_) args.emplace_back(w);
            return std::get<vm::TupleValuePtr>(machine.invoke(fn, args));
        };
        auto argmax_last = [](const NDArray& logits) {
            int64_t vocab = logits.shape().back();
            int64_t base = logits.numel() - vocab;
            int64_t best = 0;
            for (int64_t v = 1; v < vocab; ++v) {
                if (logits.at(base + v) > logits.at(base + best)) best = v;
            }
            return best;
        };

        std::vector<double> ids(prompt.begin(), prompt.end());
        auto state = invoke("prefill",
                            NDArray::fromVector({1, (int64_t)prompt.size()},
                                                DataType::i64(), ids),
                            {});
        std::vector<NDArray> caches;
        for (size_t i = 1; i < state->fields.size(); ++i) {
            caches.push_back(std::get<NDArray>(state->fields[i]));
        }
        int64_t ctx = (int64_t)prompt.size();
        std::vector<int64_t> generated;
        generated.push_back(
            argmax_last(std::get<NDArray>(state->fields[0])));
        while ((int64_t)generated.size() < max_new &&
               generated.back() != stop_token &&
               ctx + 1 < config_.maxContext) {
            NDArray next = NDArray::fromVector(
                {1, 1}, DataType::i64(), {(double)generated.back()});
            auto out = invoke("decode", next, caches);
            caches.clear();
            for (size_t i = 1; i < out->fields.size(); ++i) {
                caches.push_back(std::get<NDArray>(out->fields[i]));
            }
            ++ctx;
            generated.push_back(
                argmax_last(std::get<NDArray>(out->fields[0])));
        }
        return generated;
    }

  private:
    LlamaConfig config_;
    vm::ExecutablePtr exec_;
    std::vector<NDArray> weights_;
};

struct FuzzRequest
{
    std::vector<int64_t> prompt;
    int64_t maxNew = 1;
    int64_t stopToken = -1;
    int64_t arrivalStep = 0; //!< engine step at which the request is added
    int64_t dupOf = -1; //!< index of the earlier request whose prompt this
                        //!< one duplicates (content only — NO engine hint;
                        //!< the hash index must detect it by itself)
};

struct FuzzScenario
{
    std::vector<FuzzRequest> requests;
    SchedulePolicy policy = SchedulePolicy::kFCFS;
    int64_t kvBlockTokens = 4;
    int64_t kvBudgetBytes = 0;
};

/** Draws one scenario; budgets always fit the largest single request so
 *  the trace can finish, but may force serialization and eviction. */
FuzzScenario
drawScenario(std::mt19937& rng, const LlamaConfig& config)
{
    auto draw = [&](int64_t lo, int64_t hi) {
        return lo + (int64_t)(rng() % (uint64_t)(hi - lo + 1));
    };
    FuzzScenario scenario;
    scenario.policy = rng() % 2 == 0 ? SchedulePolicy::kFCFS
                                     : SchedulePolicy::kShortestPromptFirst;
    scenario.kvBlockTokens = draw(2, 6);
    int64_t num_requests = draw(1, 6);
    int64_t max_need = 0;
    for (int64_t i = 0; i < num_requests; ++i) {
        FuzzRequest request;
        int64_t prompt_len = draw(1, 12);
        for (int64_t t = 0; t < prompt_len; ++t) {
            request.prompt.push_back(draw(0, config.vocabSize - 1));
        }
        request.maxNew = draw(1, 8);
        // Mid-stream arrival: requests land across the first steps of
        // the trace, so prefill chunks and running decodes coexist in
        // the same packed call.
        request.arrivalStep = draw(0, 4);
        if (rng() % 4 == 0) {
            // An occasionally-hit stop token (small vocab makes real
            // early stops likely across scenarios).
            request.stopToken = draw(0, config.vocabSize - 1);
        }
        if (i > 0 && rng() % 3 == 0) {
            // Duplicate prompt prefix: repeat an earlier request's
            // prompt and extend it with a short suffix. There is no
            // fork hint anywhere — automatic prefix caching must find
            // the shared pages itself whenever the twin's blocks are
            // still resident, and tokens must match regardless.
            request.dupOf = draw(0, i - 1);
            const FuzzRequest& twin = scenario.requests[request.dupOf];
            request.prompt = twin.prompt;
            int64_t suffix = draw(1, 4);
            for (int64_t t = 0; t < suffix; ++t) {
                request.prompt.push_back(draw(0, config.vocabSize - 1));
            }
            // Arriving after the twin's prefill makes a live match
            // possible (same-step arrivals admit before registration).
            request.arrivalStep =
                std::max(request.arrivalStep, twin.arrivalStep + 1);
        }
        max_need = std::max(max_need,
                            (int64_t)request.prompt.size() + request.maxNew);
        scenario.requests.push_back(std::move(request));
    }
    // Between "just fits the largest request" (forces serialization and
    // evictions) and twice that (mild pressure).
    int64_t blocks_needed = (max_need + scenario.kvBlockTokens - 1) /
                            scenario.kvBlockTokens;
    int64_t bytes_per_block =
        config.kvBytesPerToken() * scenario.kvBlockTokens;
    scenario.kvBudgetBytes =
        draw(blocks_needed, 2 * blocks_needed) * bytes_per_block;
    return scenario;
}

/** Seed count: 40 by default, RELAX_FUZZ_SEEDS overrides (cron soak). */
int64_t
fuzzSeedCount()
{
    const char* env = std::getenv("RELAX_FUZZ_SEEDS");
    if (!env) return 40;
    int64_t count = std::atoll(env);
    return count > 0 ? count : 40;
}

TEST(FuzzTraceTest, BatchedEngineMatchesSequentialOracle)
{
    // Instrumented differential mode for the whole corpus: every
    // in-place kernel call in every seed below runs twice — aliased and
    // copy-in/copy-out — and throws on any bit difference, so the token
    // oracle here simultaneously proves the aliasing rewrites are
    // behavior-preserving across the fuzzed serving space.
    setenv("RELAX_ALIAS_CHECK", "1", 1);
    const int64_t alias_checks_before = vm::aliasChecksPerformed();

    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config);

    // Compile each engine variant once; scenarios share the executables.
    frontend::CompileOptions replay_on = fuzzOptions(true);
    replay_on.graphBucketTokens = 4; // bucketed capture on the serve path
    frontend::CompileOptions replay_off = fuzzOptions(false);
    auto exec_on =
        frontend::compile(frontend::buildLlama(config), replay_on);
    auto exec_off =
        frontend::compile(frontend::buildLlama(config), replay_off);
    // Tensor-parallel variants: the same model sharded 2-ways (ShardPass
    // + lockstep collectives). One executable serves both shards.
    frontend::CompileOptions replay_on_tp = replay_on;
    replay_on_tp.tensorParallel = 2;
    frontend::CompileOptions replay_off_tp = replay_off;
    replay_off_tp.tensorParallel = 2;
    auto exec_on_tp =
        frontend::compile(frontend::buildLlama(config), replay_on_tp);
    auto exec_off_tp =
        frontend::compile(frontend::buildLlama(config), replay_off_tp);
    auto weights = frontend::makeLlamaWeights(config, /*with_data=*/true);
    // Draft weights for the speculation axis. The draft reuses the same
    // tiny architecture (and compiled executable — graph keyspaces keep
    // the two VMs' captures apart), so the identical-seed draft agrees
    // with the target everywhere (all-accept) while the alternate seed
    // mostly disagrees (reject + rollback). Identity must hold either way.
    auto draft_weights_same =
        frontend::makeLlamaWeights(config, /*with_data=*/true, 7);
    auto draft_weights_alt =
        frontend::makeLlamaWeights(config, /*with_data=*/true, 11);

    int64_t total_replays = 0;
    int64_t total_evictions = 0;
    int64_t total_prefix_hits = 0, total_prefix_tokens = 0;
    int64_t mixed_step_traces = 0;
    int64_t ragged_steps = 0, ragged_decode_calls = 0;
    int64_t total_spec_proposed = 0, total_spec_accepted = 0;
    int64_t total_truncates = 0, total_draft_calls = 0;
    int64_t total_collectives = 0;
    std::mt19937 seed_rng(0xF00D);
    const int64_t seed_count = fuzzSeedCount();
    for (int64_t round = 0; round < seed_count; ++round) {
        unsigned seed = (unsigned)seed_rng();
        std::mt19937 rng(seed);
        FuzzScenario scenario = drawScenario(rng, config);
        // Requests are added in arrival order; sorting once up front
        // makes engine request ids line up with this vector's indices.
        std::stable_sort(scenario.requests.begin(), scenario.requests.end(),
                         [](const FuzzRequest& a, const FuzzRequest& b) {
                             return a.arrivalStep < b.arrivalStep;
                         });

        // One oracle pass per request; every engine variant must match it.
        std::vector<std::vector<int64_t>> expected;
        expected.reserve(scenario.requests.size());
        for (const FuzzRequest& request : scenario.requests) {
            expected.push_back(oracle.generate(
                request.prompt, request.maxNew, request.stopToken));
        }

        EngineOptions engine_options;
        engine_options.scheduler.policy = scenario.policy;
        // Cap per-step prefill so one packed call (prefills + decode
        // rows) stays inside the compiled n=32 bound.
        engine_options.scheduler.maxPrefillTokensPerStep = 24;
        engine_options.kvBlockTokens = scenario.kvBlockTokens;
        engine_options.kvBudgetBytes = scenario.kvBudgetBytes;

        for (int64_t tp : {int64_t(1), int64_t(2)})
        for (int64_t spec_k : {int64_t(0), int64_t(2), int64_t(4)})
        for (bool with_replay : {true, false}) {
            // tp=2 shards the target across a two-device group; the
            // draft (when speculating) stays single-VM on shard 0, and
            // the token streams must STILL match the tp=1 oracle —
            // sharding is invisible to scheduling and sampling.
            std::shared_ptr<device::DeviceGroup> group;
            std::shared_ptr<device::SimDevice> dev;
            if (tp == 2) {
                group = std::make_shared<device::DeviceGroup>(
                    hostSpec(with_replay), 2,
                    device::interconnectByName("nvlink"));
                dev = group->devicePtr(0);
            } else {
                dev = std::make_shared<device::SimDevice>(
                    hostSpec(with_replay));
            }
            // Tracing on for every seed: the token oracle below then
            // also pins the observation-only invariant (recording may
            // not change any token), and each trace must be well
            // nested.
            dev->trace().enable();
            EngineOptions variant_options = engine_options;
            variant_options.speculation.draftTokens = spec_k;
            variant_options.speculation.draftConfig = config;
            vm::ExecutablePtr exec =
                tp == 2 ? (with_replay ? exec_on_tp : exec_off_tp)
                        : (with_replay ? exec_on : exec_off);
            Engine engine(exec, dev, /*data_mode=*/true, config, weights,
                          variant_options, group);
            if (spec_k > 0) {
                engine.enableSpeculation(with_replay ? exec_on : exec_off,
                                         round % 2 == 0
                                             ? draft_weights_same
                                             : draft_weights_alt);
            }
            // Mid-stream arrival driver: add each request at its
            // arrival step, stepping the engine in between so fresh
            // prefills join an already-decoding batch.
            size_t next_request = 0;
            for (int64_t tick = 0;; ++tick) {
                while (next_request < scenario.requests.size() &&
                       scenario.requests[next_request].arrivalStep <= tick) {
                    const FuzzRequest& request =
                        scenario.requests[next_request];
                    engine.addRequest(request.prompt, request.maxNew,
                                      request.stopToken);
                    ++next_request;
                }
                bool progressed = engine.step();
                if (next_request == scenario.requests.size() &&
                    !engine.hasPendingWork()) {
                    break;
                }
                ASSERT_TRUE(progressed ||
                            next_request < scenario.requests.size())
                    << "stalled: seed=" << seed
                    << " replay=" << with_replay;
            }
            auto results = engine.collect();
            ASSERT_EQ(results.size(), scenario.requests.size())
                << "seed=" << seed << " replay=" << with_replay;
            // collect() orders by request id == the order added above.
            std::sort(results.begin(), results.end(),
                      [](const FinishedRequest& a, const FinishedRequest& b) {
                          return a.id < b.id;
                      });
            for (size_t i = 0; i < results.size(); ++i) {
                EXPECT_EQ(results[i].outputTokens, expected[i])
                    << "seed=" << seed << " request=" << i
                    << " replay=" << with_replay << " tp=" << tp
                    << " spec_k=" << spec_k
                    << " draft=" << (round % 2 == 0 ? "same" : "alt")
                    << " policy=" << (int)scenario.policy;
            }
            if (with_replay) {
                total_replays += engine.machine().graphStats().replays;
            } else {
                // Graph offload disabled: capture must never engage.
                EXPECT_EQ(engine.machine().graphStats().begins, 0);
            }
            total_evictions += engine.stats().evictions;
            total_prefix_hits += engine.kv().prefixHits();
            total_prefix_tokens += engine.kv().prefixTokensMatched();
            if (engine.stats().prefillBatches < engine.stats().steps &&
                engine.stats().prefillBatches > 1) {
                // More than one arrival wave and some pure-decode steps:
                // this trace genuinely mixed prefills into a running
                // batch at least once.
                ++mixed_step_traces;
            }
            // THE packed-varlen invariant: exactly one call per step,
            // even when prefill chunks and decode rows share the step —
            // the grouping loop this replaced issued up to one call per
            // distinct fresh length. And the page-pool path never
            // copies cache bytes on the host.
            EXPECT_EQ(engine.stats().decodeBatches, engine.stats().steps)
                << "seed=" << seed << " replay=" << with_replay;
            EXPECT_EQ(engine.stats().relayoutBytes, 0)
                << "seed=" << seed;
            ragged_steps += engine.stats().steps;
            ragged_decode_calls += engine.stats().decodeBatches;
            if (tp == 2) {
                // Every sharded packed call paid its collectives: two
                // all_reduces per layer plus the logits all_gather.
                EXPECT_EQ(group->collectiveCount(),
                          engine.stats().steps *
                              (2 * config.numLayers + 1))
                    << "seed=" << seed << " replay=" << with_replay;
                EXPECT_GT(group->collectiveUs(), 0.0) << "seed=" << seed;
                total_collectives += group->collectiveCount();
            }

            // Metrics cross-checks against ground truth: the registry
            // is updated at the event sites, the fields it mirrors are
            // maintained independently — any drift between the two is a
            // lost or double-counted event.
            MetricsRegistry& metrics = engine.metrics();
            EXPECT_EQ(metrics.histogram("serve.ttft_us").count(),
                      engine.stats().requestsFinished)
                << "seed=" << seed << " replay=" << with_replay;
            EXPECT_EQ(metrics.histogram("serve.itl_us").count(),
                      engine.stats().tokensGenerated -
                          engine.stats().requestsFinished)
                << "seed=" << seed << " replay=" << with_replay;
            EXPECT_EQ(metrics.counter("serve.evictions").value(),
                      engine.stats().evictions)
                << "seed=" << seed;
            EXPECT_EQ(metrics.counter("serve.requests_finished").value(),
                      engine.stats().requestsFinished)
                << "seed=" << seed;
            EXPECT_EQ(metrics.counter("serve.steps").value(),
                      engine.stats().steps)
                << "seed=" << seed;
            EXPECT_EQ(metrics.counter("kv.cow_copies").value(),
                      engine.kv().cowCopies())
                << "seed=" << seed;
            EXPECT_EQ(metrics.counter("kv.prefix_hits").value(),
                      engine.kv().prefixHits())
                << "seed=" << seed;
            EXPECT_EQ(metrics.counter("kv.prefix_tokens_matched").value(),
                      engine.kv().prefixTokensMatched())
                << "seed=" << seed;
            if (spec_k > 0) {
                // Speculation tallies mirror the stats fields, and the
                // truncate counter covers both pools (the draft rewinds
                // on every rejection; the target returns surplus pages).
                EXPECT_EQ(
                    metrics.counter("serve.spec_proposed_tokens").value(),
                    engine.stats().specProposed)
                    << "seed=" << seed;
                EXPECT_EQ(
                    metrics.counter("serve.spec_accepted_tokens").value(),
                    engine.stats().specAccepted)
                    << "seed=" << seed;
                EXPECT_EQ(metrics.counter("serve.draft_calls").value(),
                          engine.stats().draftCalls)
                    << "seed=" << seed;
                ASSERT_NE(engine.draftKv(), nullptr);
                EXPECT_EQ(metrics.counter("kv.truncates").value(),
                          engine.kv().truncateCount() +
                              engine.draftKv()->truncateCount())
                    << "seed=" << seed;
                total_spec_proposed += engine.stats().specProposed;
                total_spec_accepted += engine.stats().specAccepted;
                total_draft_calls += engine.stats().draftCalls;
                total_truncates += engine.kv().truncateCount() +
                                   engine.draftKv()->truncateCount();
            } else {
                // Speculation off must leave no trace at all.
                EXPECT_EQ(engine.stats().specProposed, 0);
                EXPECT_EQ(engine.stats().draftCalls, 0);
                EXPECT_EQ(engine.kv().truncateCount(), 0);
            }

            // Structural trace invariant: per-lane 'X' spans nest.
            std::string nest_error;
            EXPECT_TRUE(dev->trace().wellNested(&nest_error))
                << "seed=" << seed << " replay=" << with_replay << ": "
                << nest_error;
            EXPECT_FALSE(dev->trace().events().empty())
                << "seed=" << seed;
        }
    }
    // The fuzz must actually exercise the interesting machinery: some
    // scenario replayed a bucketed graph, some scenario evicted, some
    // trace mixed prefill and decode rows in one step, and automatic
    // prefix caching detected duplicated prompts (saving real pages)
    // without ever being hinted.
    EXPECT_GT(total_replays, 0);
    EXPECT_GT(total_evictions, 0);
    EXPECT_GT(mixed_step_traces, 0);
    EXPECT_GT(total_prefix_hits, 0);
    EXPECT_GT(total_prefix_tokens, 0);
    EXPECT_GT(ragged_decode_calls, 0);
    EXPECT_EQ(ragged_decode_calls, ragged_steps);
    // The tp=2 axis really ran sharded (and paid for its collectives).
    EXPECT_GT(total_collectives, 0);
    // The speculation axis must have exercised both regimes: drafts were
    // proposed, some were accepted (the identical-draft rounds), and
    // some were rejected hard enough to roll KV state back.
    EXPECT_GT(total_draft_calls, 0);
    EXPECT_GT(total_spec_proposed, 0);
    EXPECT_GT(total_spec_accepted, 0);
    EXPECT_LT(total_spec_accepted, total_spec_proposed);
    EXPECT_GT(total_truncates, 0);
    // The instrumented differential verifier must have actually fired:
    // every seed decoded through the planner's in-place KV appends (and
    // any in-place elementwise sites), each invocation double-executed
    // and bit-compared. A zero here means the corpus silently stopped
    // covering the aliasing machinery.
    unsetenv("RELAX_ALIAS_CHECK");
    EXPECT_GT(vm::aliasChecksPerformed() - alias_checks_before,
              seed_count * 4)
        << "differential alias checking did not run across the corpus";
}

TEST(FuzzTraceTest, BuildWiresKvBlockSizeIntoGraphBucket)
{
    // Engine::build with graphBucketTokens=0 (auto) aligns the capture
    // bucket to the KV block size; steady-state decode then replays.
    LlamaConfig config = LlamaConfig::tiny();
    EngineOptions options;
    options.kvBlockTokens = 4;
    auto engine = Engine::build(config, fuzzOptions(true),
                                /*data_mode=*/true, options);
    engine->addRequest({1, 2, 3}, 10);
    engine->run();
    const EngineStats& stats = engine->stats();
    EXPECT_GT(stats.decodeGraphBegins, 0);
    EXPECT_GT(stats.decodeGraphReplays, 0);
    EXPECT_GT(stats.decodeReplayHitRate(), 0.5);
}

} // namespace
} // namespace serve
} // namespace relax
