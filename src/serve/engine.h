/**
 * @file
 * Engine: the continuous-batching serving front door (addRequest / step /
 * collect) over one compiled executable and one persistent KV page pool.
 * Each step() admits waiting requests (scheduler policy + KV budget) and
 * then issues exactly ONE pool-addressed `decode_ragged` call covering
 * the whole batch — newly admitted rows contribute their fresh prompt
 * tails, already-running rows contribute one decode token each. The
 * packed varlen layout makes the mix rectangular-free: token ids ride in
 * one flat [1, total_fresh] tensor, per-row extents in a cumulative
 * offsets tensor cu_fresh [b+1] (row r owns packed positions
 * [cu[r], cu[r+1])), true context lengths in a [b] host tensor, and the
 * block table names each row's pool pages. The kernels scatter K/V
 * straight into pool pages at each row's committed offset, so a prefill
 * chunk and an n=1 decode coexist in the same call — there is no
 * grouping loop and `decode calls == steps` by construction.
 *
 * The pool tensors pass through the call and are mutated in place
 * (`kv.append_ragged` aliases its output to the pool), so the engine
 * never copies cache bytes on the host: EngineStats::relayoutBytes
 * counts any host-side cache relayout and must read 0 — the tripwire
 * scripts/check.sh gates. Prompt prefixes dedupe automatically: the
 * KV manager indexes committed page-aligned blocks by chained content
 * hash, and admission maps a new request onto any indexed pages whose
 * verified content matches its prompt (KVCacheManager::matchPrefix) —
 * no fork hint from the caller, refcounts + copy-on-write keep writers
 * private exactly as explicit forks did.
 *
 * build() compiles the executable with the graph-capture bucket equal to
 * the KV block size, so the decode shape signature moves only when the
 * batch, the packed token count or the table width crosses a bucket
 * boundary: consecutive pure-decode steps replay one captured execution
 * graph (EngineStats::decodeReplayHitRate). Under memory pressure decode
 * growth evicts the most recently admitted sequence; evicted requests
 * re-prefill prompt+generated on re-admission (re-matching whatever
 * prefix is still indexed), so outputs are preserved exactly.
 *
 * enableSpeculation() attaches a draft model (a second LlamaConfig with
 * its own weights, VM and KV pool on the shared device; own graph
 * keyspace so the two VMs never cross-replay captures). Decoding rows
 * then run propose/verify/accept per step: the draft proposes k tokens,
 * the target verifies pending+drafts as one packed n=k+1 row inside the
 * SAME step call (the prefill-chunk shape — decodeBatches == steps is
 * preserved; draft calls count in EngineStats::draftCalls), and the
 * Sampler accepts a prefix (greedy: longest argmax match + bonus token,
 * token-identical to sequential greedy; top-k: rejection sampling,
 * target-distribution preserving). Rejected tokens rewind both pools
 * via KVCacheManager::truncate; a step's COW copies price as one burst
 * launch. docs/DESIGN.md §8 is the contract.
 *
 * Works in both VM modes: data mode samples real logits (correctness
 * tests, examples); timing mode advances the simulated device clock with
 * metadata-only tensors (throughput benchmarks).
 */
#ifndef RELAX_SERVE_ENGINE_H_
#define RELAX_SERVE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "device/interconnect.h"
#include "frontend/compile.h"
#include "frontend/llama.h"
#include "serve/kv_cache.h"
#include "serve/request.h"
#include "serve/sampler.h"
#include "serve/scheduler.h"
#include "support/metrics.h"
#include "vm/vm.h"

namespace relax {
namespace serve {

/**
 * Speculative decoding configuration. When `draftTokens` > 0 a second,
 * smaller model (the draft) proposes up to k tokens per running row per
 * step and the target model verifies all k+1 positions in its ONE
 * packed-varlen call — an n=k+1 row instead of n=1, no new kernels. The
 * draft runs on the same simulated device (one clock, one VRAM pool)
 * through its own VM, weights and KV page pool.
 */
struct SpeculationOptions
{
    /** Draft tokens proposed per running row per step; 0 disables. */
    int64_t draftTokens = 0;
    /**
     * The draft model. Must share the target's vocabulary (token ids
     * cross between the two models) and cover its context window.
     * Engine::build compiles it; direct-constructor callers compile it
     * themselves and hand the executable to enableSpeculation().
     */
    frontend::LlamaConfig draftConfig;
    /** Weight seed for the draft model in Engine::build. */
    unsigned draftWeightSeed = 7;
    /**
     * Timing mode has no logits to verify against, so acceptance is
     * simulated: each draft position survives an independent
     * Bernoulli(rate) draw until the first failure. Benches sweep this
     * to chart tokens/s uplift as a function of acceptance rate.
     */
    double syntheticAcceptanceRate = 0.8;
};

struct EngineOptions
{
    SchedulerOptions scheduler;
    SamplerOptions sampler;
    SpeculationOptions speculation;
    /**
     * Byte budget for the KV page pool; 0 derives one from the device:
     * (vramBytes - model weightBytes - draft footprint) * 0.8, floored
     * at one block.
     */
    int64_t kvBudgetBytes = 0;
    /** Cache positions per KV page (pool block size). */
    int64_t kvBlockTokens = 16;
    /**
     * Tensor-parallel shard count: Engine::build stands up an N-device
     * DeviceGroup joined by `interconnect` (1, the default, is a
     * one-device group that prices nothing). N > 1 compiles
     * `decode_ragged` through ShardPass, shards the weights and KV pools
     * Megatron-style and runs every step's packed call in instruction
     * lockstep with priced ring collectives (two all-reduces per layer
     * plus a logits all-gather). Scheduling state — KV budget,
     * admission, eviction — stays in logical full-model units, so the
     * emitted token streams are identical to tp=1 and
     * `decodeBatches == steps` still holds. DESIGN.md §10.
     */
    int64_t tensorParallel = 1;
    /** Interconnect for the device group ("nvlink", "pcie_gen4"). */
    std::string interconnect = "nvlink";
};

/** Aggregate engine statistics on the virtual clock (RunStats-style). */
struct EngineStats
{
    int64_t steps = 0;
    int64_t prefillBatches = 0; //!< steps whose packed call held prefill rows
    int64_t decodeBatches = 0;  //!< packed calls issued (== steps)
    int64_t prefillTokens = 0;  //!< fresh tokens prefilled into the pool
    int64_t tokensGenerated = 0;
    int64_t requestsFinished = 0;
    int64_t evictions = 0;
    double busyUs = 0.0;      //!< device-clock time spent inside step()
    int64_t peakKvBytes = 0;  //!< high-water unique-page pool usage
    double ttftSumUs = 0.0;   //!< summed TTFT of finished requests

    /**
     * Host-side KV-cache bytes copied to relayout tensors for a compiled
     * call. The page-pool path addresses the cache in place through the
     * block table, so this must stay 0; any future host-side cache copy
     * must add to it (the zero-relayout invariant, DESIGN.md §5, gated
     * by bench_serve_throughput and scripts/check.sh).
     */
    int64_t relayoutBytes = 0;

    // Execution-graph counters, split by phase: with bucketed capture the
    // steady-state decode path should be almost all replays (the Fig. 17
    // launch-overhead win applied to serving).
    int64_t decodeGraphBegins = 0;
    int64_t decodeGraphReplays = 0;
    int64_t prefillGraphBegins = 0;
    int64_t prefillGraphReplays = 0;

    // Speculative decoding counters. The target's packed call stays ONE
    // per step (decodeBatches == steps holds with speculation on); the
    // draft model's catch-up and propose calls are tallied separately.
    int64_t draftCalls = 0;    //!< draft-model packed calls issued
    int64_t specProposed = 0;  //!< draft tokens submitted for verification
    int64_t specAccepted = 0;  //!< draft tokens the target accepted

    /** Fraction of proposed draft tokens the target accepted. */
    double
    specAcceptanceRate() const
    {
        return specProposed > 0
                   ? (double)specAccepted / (double)specProposed
                   : 0.0;
    }

    double
    tokensPerSec() const
    {
        return busyUs > 0 ? (double)tokensGenerated / busyUs * 1e6 : 0.0;
    }

    double
    meanTtftUs() const
    {
        return requestsFinished > 0 ? ttftSumUs / (double)requestsFinished
                                    : 0.0;
    }

    /** Fraction of decode-step graph regions served by replay. */
    double
    decodeReplayHitRate() const
    {
        return decodeGraphBegins > 0 ? (double)decodeGraphReplays /
                                           (double)decodeGraphBegins
                                     : 0.0;
    }
};

/** The serving engine. */
class Engine
{
  public:
    /**
     * @param exec      compiled executable with the pool-addressed
     *                  `decode_ragged` (other functions are ignored)
     * @param dev       simulated device the VM runs on
     * @param data_mode true: real tensors + logits sampling; false:
     *                  metadata-only timing mode
     * @param config    model config (cache geometry, vocab)
     * @param weights   FULL-model parameter tensors in builder order
     *                  (data or metadata matching `data_mode`); under
     *                  tensor parallelism the engine slices them into
     *                  per-shard sets itself
     * @param group     device group the model runs on; null (default)
     *                  wraps `dev` in a one-device group. Otherwise
     *                  `dev` must be the group's device 0, and for
     *                  N > 1 devices `exec` must be a ShardPass build
     *                  for N shards.
     */
    Engine(vm::ExecutablePtr exec, std::shared_ptr<device::SimDevice> dev,
           bool data_mode, frontend::LlamaConfig config,
           std::vector<NDArray> weights, EngineOptions options = {},
           std::shared_ptr<device::DeviceGroup> group = nullptr);

    /**
     * Compiles `config`'s `decode_ragged` (the one function the engine
     * calls) for `options.device` and builds a ready engine. When
     * `compile_options.graphBucketTokens` is 0 (auto), the capture
     * bucket is set to `options.kvBlockTokens` so execution-graph buckets
     * and KV pages share one boundary. When
     * `options.speculation.draftTokens` > 0 the draft model is compiled
     * with the same options and attached via enableSpeculation().
     */
    static std::unique_ptr<Engine>
    build(const frontend::LlamaConfig& config,
          const frontend::CompileOptions& compile_options, bool data_mode,
          EngineOptions options = {});

    /**
     * Attaches the draft model for speculative decoding:
     * `options.speculation` must have been configured (draftTokens > 0,
     * draftConfig set) at construction so the KV budget accounted for the
     * draft's footprint. The draft VM shares the engine's device — one
     * virtual clock, one VRAM pool — with its captured-graph keys
     * namespaced apart, and its KV pool is sized to the full addressable
     * envelope so draft reservations never evict. Engine::build calls
     * this automatically; direct-constructor callers (tests, fuzz
     * harnesses) pass their own compiled draft executable and weights.
     */
    void enableSpeculation(vm::ExecutablePtr draft_exec,
                           std::vector<NDArray> draft_weights);

    /** True once a draft model is attached and draftTokens > 0. */
    bool speculationEnabled() const { return draft_.has_value(); }

    /**
     * Queues a generation request; returns its id. Prompts longer than
     * the model's context window are rejected here (RuntimeError)
     * rather than surfacing later as an admission stall. `arrival_us`
     * backdates the arrival stamp TTFT is measured from (drivers that
     * replay an arrival trace admit requests at step boundaries, after
     * the true arrival time); negative means "now" on the device clock.
     *
     * Prompt-prefix sharing needs no hint here: at admission the KV
     * manager matches the prompt against its index of committed
     * page-aligned blocks (content-verified chained hashes) and maps any
     * hit onto the existing pool pages, so only the unmatched tail is
     * prefilled. Copy-on-write keeps every token stream exact, and a
     * request whose twin has already released its pages simply prefills
     * in full.
     */
    RequestId addRequest(std::vector<int64_t> prompt,
                         int64_t max_new_tokens, int64_t stop_token = -1,
                         double arrival_us = -1.0);

    /**
     * One continuous-batching iteration: retire finished sequences,
     * admit + prefill newcomers, decode the running batch. Returns false
     * (a strict no-op: no clock advance, no state change) when no
     * forward progress is possible — either nothing is waiting or
     * running, or the system is stalled (requests wait but none fit the
     * KV budget and none run). Callers driving step() directly must
     * check hasPendingWork() after a false return to tell the two
     * apart; run() turns the stall case into a RuntimeError.
     */
    bool step();

    /** True while any request is waiting or running. */
    bool hasPendingWork() const;

    /**
     * Steps until every request finishes. Throws RuntimeError when the
     * queue head can never fit the KV budget (nothing running and nothing
     * admissible).
     */
    const EngineStats& run();

    /** Returns finished requests (arrival order) and forgets them. */
    std::vector<FinishedRequest> collect();

    const EngineStats& stats() const { return stats_; }

    /**
     * The engine's metrics registry (always on; EngineStats keeps the
     * cheap aggregate view, the registry carries what aggregates cannot:
     * full TTFT and inter-token latency distributions plus per-step KV
     * pool gauges — see docs/DESIGN.md §7).
     *
     *  - serve.ttft_us / serve.itl_us histograms: recorded at token
     *    emission on the virtual clock. TTFT is measured from the
     *    request's ORIGINAL arrivalUs — a request evicted before its
     *    first token and re-admitted contributes its full queue+retry
     *    wait, never a rebased re-admission stamp; ITL gaps likewise
     *    include eviction stalls (real tail latency, vLLM semantics).
     *  - kv.used_pages / kv.free_pages / kv.occupancy gauges sampled
     *    once per step; serve.decode_replay_hit_rate likewise.
     *  - serve.* / kv.* counters mirror the event tallies (steps,
     *    tokens, evictions, COW copies, prefix hits, ...) — the fuzz
     *    oracle cross-checks them against the internal fields.
     */
    const MetricsRegistry& metrics() const { return metrics_; }
    MetricsRegistry& metrics() { return metrics_; }

    KVCacheManager& kv() { return *target_.kv; }
    /** The draft model's KV pool (null until enableSpeculation()). */
    KVCacheManager* draftKv() { return draft_ ? draft_->kv.get() : nullptr; }
    /** The target model's rank-0 VM. */
    vm::VirtualMachine& machine() { return *target_.ranks[0]; }
    /** The draft model's VM (null until enableSpeculation()). */
    vm::VirtualMachine*
    draftMachine()
    {
        return draft_ ? draft_->ranks[0] : nullptr;
    }
    const frontend::LlamaConfig& config() const { return config_; }
    /** The target's device group: never null; one device at tp = 1. */
    device::DeviceGroup* deviceGroup() { return target_.group.get(); }
    /** Tensor-parallel shard count (1 for single-device engines). */
    int tensorParallel() const { return target_.group->size(); }

  private:
    /**
     * One model on a DeviceGroup: rank r runs `ranks[r]` on the group's
     * device r with `weights[r]` and its slice of `kv`'s pool. The target
     * at tp = 1, the target at tp = N and the draft model are all
     * runners; a one-device group never meets a collective.
     */
    struct ModelRunner
    {
        std::shared_ptr<device::DeviceGroup> group;
        std::vector<std::unique_ptr<vm::VirtualMachine>> machines;
        std::vector<vm::VirtualMachine*> ranks; //!< machines, unowned
        std::vector<std::vector<NDArray>> weights;
        std::unique_ptr<KVCacheManager> kv;
    };

    /** A runner for `exec` on every device of `group`, with `weights`
     *  sliced per rank and a `kv_budget`-byte pool. */
    ModelRunner makeRunner(vm::ExecutablePtr exec,
                           std::shared_ptr<device::DeviceGroup> group,
                           bool data_mode,
                           const frontend::LlamaConfig& config,
                           const std::vector<NDArray>& weights,
                           int64_t kv_budget);

    /** Per-row speculation state for one step: the proposed draft tokens
     *  and (top-k sampling only) the draft distribution each was drawn
     *  from, for the rejection-sampling acceptance ratio. */
    struct SpecPlan
    {
        std::vector<int64_t> drafts;
        std::vector<TokenProbs> probs;
    };

    /**
     * One packed `decode_ragged` call on `model` (the target's one call
     * per step, or a draft call) over the rows `order`: ids [1, total]
     * is the concatenation of the per-row `tokens`, cu_fresh [b+1] their
     * cumulative offsets, lens/table views from the runner's KV pool,
     * then each rank's pools and weights. Returns the packed logits
     * [1, total, vocab].
     */
    NDArray invokeRaggedOn(ModelRunner& model,
                           const std::vector<RequestId>& order,
                           const std::vector<std::vector<int64_t>>& tokens);
    /**
     * Runs the draft model for this step's speculating rows: first
     * catch-up calls replaying each row's token stream into the draft
     * pool up to the target's committed context (chunked under the
     * prefill-token cap), then k batched n=1 propose calls, each row
     * sampling its next draft token from the draft logits. Fills
     * `plans` keyed by request id.
     */
    void proposeDrafts(const std::vector<SequenceStatePtr>& rows,
                       const std::map<RequestId, int64_t>& spec_k,
                       std::map<RequestId, SpecPlan>& plans);
    /** Grows `seq` to `tokens` positions with an exclusively-owned write
     *  range [write_start, tokens), evicting under pressure (possibly
     *  `seq` itself — callers re-check the phase afterwards). */
    void ensureWritable(const SequenceStatePtr& seq, int64_t tokens,
                        int64_t write_start);
    /** Appends a sampled token; finishes the sequence when done. */
    void appendToken(const SequenceStatePtr& seq, int64_t token);
    void finishSequence(const SequenceStatePtr& seq);
    /** Preempts `victim` back to the waiting queue, dropping its pages. */
    void evict(const SequenceStatePtr& victim);
    /** Samples from packed logits at packed position (a row's last fresh
     *  token sits at cu[r+1] - 1). */
    int64_t sampleFor(const NDArray& logits, int64_t position);

    frontend::LlamaConfig config_;
    EngineOptions options_;
    ModelRunner target_;
    Scheduler scheduler_;
    Sampler sampler_;
    // Speculative decoding: the draft model (a one-device runner on the
    // target's device 0, own graph keyspace) and its sampler (a separate
    // rng so draft sampling never perturbs the target's stream).
    std::optional<ModelRunner> draft_;
    Sampler draftSampler_;
    std::vector<SequenceStatePtr> running_;
    std::vector<SequenceStatePtr> finished_;
    EngineStats stats_;
    MetricsRegistry metrics_;
    RequestId nextId_ = 0;
    int64_t nextAdmitSeq_ = 0;
};

} // namespace serve
} // namespace relax

#endif // RELAX_SERVE_ENGINE_H_
