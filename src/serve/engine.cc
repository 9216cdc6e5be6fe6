/**
 * @file
 * Engine implementation: the continuous-batching step loop — admission
 * (with automatic prefix matching against the KV manager's block-hash
 * index), then ONE packed-varlen page-pool call per step in which newly
 * admitted rows prefill their fresh prompt tails and running rows decode
 * one token each, with copy-on-write and eviction under memory pressure —
 * plus request bookkeeping and the virtual-clock statistics (see
 * engine.h). Cache data never moves on the host: every phase addresses
 * the persistent pool through the block table, so
 * EngineStats::relayoutBytes stays 0.
 */
#include "serve/engine.h"

#include <algorithm>

#include "passes/alias_analysis.h"

namespace relax {
namespace serve {

namespace {

/** Per-row fresh tokens packed into one flat [1, total] i64 tensor. */
NDArray
packedIdsTensor(const std::vector<std::vector<int64_t>>& tokens,
                bool data_mode)
{
    int64_t total = 0;
    for (const auto& row : tokens) total += (int64_t)row.size();
    if (!data_mode) return NDArray::metaOnly({1, total}, DataType::i64());
    std::vector<double> values;
    values.reserve((size_t)total);
    for (const auto& row : tokens) {
        values.insert(values.end(), row.begin(), row.end());
    }
    return NDArray::fromVector({1, total}, DataType::i64(),
                               std::move(values));
}

/** Cumulative fresh offsets cu_fresh [b+1] (always host data: the
 *  library cost model sums per-row fresh counts from it). */
NDArray
cuFreshTensor(const std::vector<std::vector<int64_t>>& tokens)
{
    std::vector<double> cu;
    cu.reserve(tokens.size() + 1);
    double running = 0.0;
    cu.push_back(0.0);
    for (const auto& row : tokens) {
        running += (double)row.size();
        cu.push_back(running);
    }
    return NDArray::fromVector({(int64_t)tokens.size() + 1},
                               DataType::i64(), std::move(cu));
}

/** The draft KV pool is sized to the full addressable envelope — every
 *  batch slot at the draft's context ceiling plus a block of rounding
 *  slack — so draft reservations can never exhaust it (the draft must
 *  never trigger evictions of its own). */
int64_t
draftPoolBytes(const SpeculationOptions& spec, const EngineOptions& opts)
{
    return spec.draftConfig.kvBytesPerToken() *
           (spec.draftConfig.maxContext + opts.kvBlockTokens) *
           opts.scheduler.maxBatchSize;
}

/** buildLlama(config) without the dense `prefill`/`decode` the engine
 *  never calls. */
ir::IRModulePtr
servedModule(const frontend::LlamaConfig& config)
{
    ir::IRModulePtr module = frontend::buildLlama(config);
    module->removeFunction("prefill");
    module->removeFunction("decode");
    return module;
}

} // namespace

Engine::Engine(vm::ExecutablePtr exec,
               std::shared_ptr<device::SimDevice> dev, bool data_mode,
               frontend::LlamaConfig config, std::vector<NDArray> weights,
               EngineOptions options,
               std::shared_ptr<device::DeviceGroup> group)
    : config_(std::move(config)), options_(options),
      scheduler_(options.scheduler), sampler_(options.sampler),
      draftSampler_(options.sampler)
{
    if (group) {
        RELAX_ICHECK(dev == group->devicePtr(0))
            << "engine must run on its device group's device 0";
    } else {
        group = std::make_shared<device::DeviceGroup>(std::move(dev));
    }
    // Memory-plan observability: the compiler's plan for the served
    // function is static, so its footprint is sampled once here (the
    // Table 2 "activation memory" figure is plan.total_bytes of the
    // decode path; in-place rewrites are what keep it flat).
    {
        passes::MemoryPlanReport plan =
            passes::memoryPlanReport(exec->module, "decode_ragged");
        metrics_.gauge("plan.storages")
            .sample((double)plan.storagesAllocated);
        metrics_.gauge("plan.total_bytes")
            .sample((double)plan.bytesAllocated);
        metrics_.gauge("plan.reuse_hits").sample((double)plan.reuseHits);
        metrics_.gauge("plan.bytes_reused")
            .sample((double)plan.bytesReused);
        metrics_.gauge("plan.inplace_rewrites")
            .sample((double)plan.inplaceWrites);
    }
    int64_t budget = options_.kvBudgetBytes;
    if (budget <= 0) {
        // Auto budget: what the device has left once weights are resident,
        // with 20% headroom for activations, floored at one block. The
        // pool is allocated up front, so additionally cap the auto size
        // at the addressable envelope: maxBatchSize sequences can never
        // hold more than maxContext positions each (plus a block of
        // rounding slack per slot). Paper-scale configs are far above
        // this; it keeps tiny test configs from materializing gigabyte
        // pools in data mode. An explicit kvBudgetBytes is respected
        // as-is. With speculation configured, the draft model's weights
        // and pool envelope come off the top first.
        int64_t resident = config_.weightBytes();
        if (options_.speculation.draftTokens > 0) {
            resident += options_.speculation.draftConfig.weightBytes() +
                        draftPoolBytes(options_.speculation, options_);
        }
        budget = (int64_t)((double)(group->device(0).spec().vramBytes -
                                    resident) *
                           0.8);
        int64_t usable = config_.kvBytesPerToken() *
                         (config_.maxContext + options_.kvBlockTokens) *
                         options_.scheduler.maxBatchSize;
        budget = std::min(budget, usable);
    }
    budget = std::max(budget,
                      config_.kvBytesPerToken() * options_.kvBlockTokens);
    // The budget formula above is the tp=1 formula in LOGICAL full-model
    // bytes regardless of sharding — the KV manager divides residency
    // per shard internally, so admission decisions (and therefore the
    // token streams) are identical at every tensorParallel.
    target_ = makeRunner(std::move(exec), std::move(group), data_mode,
                         config_, weights, budget);
    // One observability spine: the scheduler stamps lifecycle instants
    // with the device clock + TraceRecorder.
    scheduler_.attachDevice(&machine().dev());
}

Engine::ModelRunner
Engine::makeRunner(vm::ExecutablePtr exec,
                   std::shared_ptr<device::DeviceGroup> group,
                   bool data_mode, const frontend::LlamaConfig& config,
                   const std::vector<NDArray>& weights, int64_t kv_budget)
{
    // Rank r gets its own VM on the group's device r, all sharing ONE
    // executable (the ShardPass split is uniform, so one compiled
    // program serves every rank), and holds its Megatron slice of the
    // full weights; replicated tensors share storage by handle.
    ModelRunner runner;
    int n = group->size();
    for (int r = 0; r < n; ++r) {
        runner.machines.push_back(std::make_unique<vm::VirtualMachine>(
            exec, group->devicePtr(r), data_mode));
        runner.ranks.push_back(runner.machines.back().get());
        runner.weights.push_back(
            frontend::shardLlamaWeights(config, weights, r, n));
    }
    runner.group = std::move(group);
    runner.kv = std::make_unique<KVCacheManager>(
        config, *runner.ranks[0], kv_budget, options_.kvBlockTokens,
        runner.ranks);
    // The KV manager mirrors its event tallies into the engine's
    // registry.
    runner.kv->setMetrics(&metrics_);
    return runner;
}

std::unique_ptr<Engine>
Engine::build(const frontend::LlamaConfig& config,
              const frontend::CompileOptions& compile_options,
              bool data_mode, EngineOptions options)
{
    frontend::CompileOptions copts = compile_options;
    if (copts.graphBucketTokens == 0) {
        // Align graph-capture buckets with KV pages: the decode
        // signature (b, n=1, table width) then changes only when the
        // batch crosses a bucket class or the longest sequence grows
        // into a new page, so the steps in between replay one captured
        // graph.
        copts.graphBucketTokens = options.kvBlockTokens;
    }
    // At tp > 1 ShardPass rewrites decode_ragged into the per-shard
    // program the engine runs across the group in lockstep.
    copts.tensorParallel = options.tensorParallel;
    auto group = std::make_shared<device::DeviceGroup>(
        copts.device, (int)options.tensorParallel,
        device::interconnectByName(options.interconnect));
    auto exec = frontend::compile(servedModule(config), copts);
    auto weights = frontend::makeLlamaWeights(config, data_mode);
    auto engine = std::make_unique<Engine>(
        std::move(exec), group->devicePtr(0), data_mode, config,
        std::move(weights), options, group);
    if (options.speculation.draftTokens > 0) {
        // The draft compiles under the same options (device, bounds,
        // bucket): its verify-free n=1 decode reuses the exact symbolic
        // machinery, just over a smaller config. It is never sharded —
        // it runs on the group's device 0, and any clock skew merges at
        // the target's next collective barrier.
        const frontend::LlamaConfig& dconfig =
            options.speculation.draftConfig;
        frontend::CompileOptions draft_copts = copts;
        draft_copts.tensorParallel = 1;
        auto dexec = frontend::compile(servedModule(dconfig), draft_copts);
        engine->enableSpeculation(
            std::move(dexec),
            frontend::makeLlamaWeights(dconfig, data_mode,
                                       options.speculation.draftWeightSeed));
    }
    return engine;
}

void
Engine::enableSpeculation(vm::ExecutablePtr draft_exec,
                          std::vector<NDArray> draft_weights)
{
    const SpeculationOptions& spec = options_.speculation;
    RELAX_ICHECK(spec.draftTokens > 0)
        << "enableSpeculation: options.speculation.draftTokens must be "
           "positive at engine construction (the KV budget accounts for "
           "the draft footprint there)";
    RELAX_ICHECK(!draft_) << "draft model already attached";
    RELAX_ICHECK(spec.draftConfig.vocabSize == config_.vocabSize)
        << "draft vocabulary (" << spec.draftConfig.vocabSize
        << ") must match the target's (" << config_.vocabSize
        << "): token ids cross between the two models";
    RELAX_ICHECK(spec.draftConfig.maxContext >= config_.maxContext)
        << "draft context window (" << spec.draftConfig.maxContext
        << ") must cover the target's (" << config_.maxContext << ")";
    // The draft is a one-device runner on the target's device 0.
    draft_ = makeRunner(
        std::move(draft_exec),
        std::make_shared<device::DeviceGroup>(machine().devPtr()),
        machine().dataMode(), spec.draftConfig, draft_weights,
        draftPoolBytes(spec, options_));
    // Namespace the draft's captured graphs: graph ids restart per
    // executable, so without this a draft region could replay a graph
    // the target captured on the shared device.
    draft_->ranks[0]->setGraphKeyspace("draft");
}

RequestId
Engine::addRequest(std::vector<int64_t> prompt, int64_t max_new_tokens,
                   int64_t stop_token, double arrival_us)
{
    RELAX_ICHECK(!prompt.empty()) << "empty prompt";
    RELAX_ICHECK(max_new_tokens >= 1) << "maxNewTokens must be >= 1";
    if ((int64_t)prompt.size() > config_.maxContext) {
        // Reject at submission: the pool is sized to the model's context
        // window, so an over-long prompt could never be admitted and
        // would otherwise surface later as a confusing stall.
        RELAX_THROW(RuntimeError)
            << "prompt of " << prompt.size()
            << " tokens exceeds the model context window ("
            << config_.maxContext << ")";
    }
    auto seq = std::make_shared<SequenceState>();
    seq->request.id = nextId_++;
    seq->request.promptTokens = std::move(prompt);
    seq->request.maxNewTokens = max_new_tokens;
    seq->request.stopToken = stop_token;
    seq->stats.arrivalUs =
        arrival_us >= 0 ? arrival_us : machine().dev().clockUs();
    RequestId id = seq->request.id;
    metrics_.counter("serve.requests_submitted").add();
    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        // The request's whole lifetime is one async span keyed by its id
        // (async pairs may overlap, unlike 'X' spans), opened at the
        // arrival stamp — possibly backdated by the caller's trace.
        trace.asyncBegin(
            trace_lanes::kEngine, trace_lanes::kRequests, "request",
            "request", id, seq->stats.arrivalUs,
            {{"prompt_tokens", (int64_t)seq->request.promptTokens.size()},
             {"max_new_tokens", max_new_tokens}});
    }
    scheduler_.enqueue(std::move(seq));
    return id;
}

bool
Engine::hasPendingWork() const
{
    return scheduler_.hasWaiting() || !running_.empty();
}

int64_t
Engine::sampleFor(const NDArray& logits, int64_t position)
{
    if (machine().dataMode()) {
        return sampler_.samplePacked(logits, position);
    }
    return sampler_.sampleSynthetic(config_.vocabSize);
}

void
Engine::appendToken(const SequenceStatePtr& seq, int64_t token)
{
    seq->generated.push_back(token);
    ++seq->stats.generatedTokens;
    ++stats_.tokensGenerated;
    double now = machine().dev().clockUs();
    if (seq->stats.firstTokenUs < 0) {
        seq->stats.firstTokenUs = now;
        // TTFT from the ORIGINAL arrival stamp: eviction + re-admission
        // never rebase arrivalUs, so a request preempted before its
        // first token contributes its full queue + retry wait here
        // (engine.h metrics() contract; pinned by test_engine.cc).
        metrics_.histogram("serve.ttft_us")
            .record(now - seq->stats.arrivalUs);
        TraceRecorder& trace = machine().dev().trace();
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kRequests,
                          "first_token", "lifecycle", now,
                          {{"request", seq->request.id},
                           {"ttft_us", now - seq->stats.arrivalUs}});
        }
    } else {
        // Inter-token gap on the virtual clock; eviction stalls between
        // two tokens land here as real tail latency.
        metrics_.histogram("serve.itl_us")
            .record(now - seq->stats.lastTokenUs);
    }
    seq->stats.lastTokenUs = now;
    // Done by budget/stop token, or the cache hit the trained context
    // window and cannot grow another position.
    if (seq->done() || seq->ctxLen >= config_.maxContext) {
        finishSequence(seq);
    }
}

void
Engine::finishSequence(const SequenceStatePtr& seq)
{
    seq->phase = RequestPhase::kFinished;
    seq->stats.finishUs = machine().dev().clockUs();
    target_.kv->release(seq->request.id);
    if (draft_) draft_->kv->release(seq->request.id);
    running_.erase(std::find(running_.begin(), running_.end(), seq));
    finished_.push_back(seq);
    ++stats_.requestsFinished;
    stats_.ttftSumUs += seq->stats.ttftUs();
    metrics_.counter("serve.requests_finished").add();
    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        trace.asyncEnd(trace_lanes::kEngine, trace_lanes::kRequests,
                       "request", "request", seq->request.id,
                       seq->stats.finishUs,
                       {{"generated", (int64_t)seq->generated.size()},
                        {"preemptions", seq->stats.preemptions}});
    }
}

void
Engine::evict(const SequenceStatePtr& victim)
{
    metrics_.counter("serve.evictions").add();
    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        trace.instant(trace_lanes::kEngine, trace_lanes::kRequests,
                      "evict", "lifecycle", machine().dev().clockUs(),
                      {{"request", victim->request.id},
                       {"ctx_len", victim->ctxLen},
                       {"generated", (int64_t)victim->generated.size()}});
    }
    victim->ctxLen = 0;
    target_.kv->release(victim->request.id);
    // The draft cache rebuilds by catch-up after re-admission, exactly
    // as the target re-prefills.
    if (draft_) draft_->kv->release(victim->request.id);
    running_.erase(std::find(running_.begin(), running_.end(), victim));
    ++victim->stats.preemptions;
    ++stats_.evictions;
    // Back of the queue: generated tokens ride along and are re-prefilled
    // on re-admission (re-forking a still-resident parent prefix), so the
    // output stream resumes where it stopped.
    scheduler_.enqueue(victim);
}

void
Engine::ensureWritable(const SequenceStatePtr& seq, int64_t tokens,
                       int64_t write_start)
{
    // Capacity plus exclusive ownership of the write range; evict the
    // most recently admitted sequence while the pool cannot provide it.
    // Evicting a prefix-sharing reader can itself unshare the range, so
    // the condition is re-checked every round.
    if (seq->phase != RequestPhase::kRunning) return;
    while (!target_.kv->canHoldWrite(seq->request.id, tokens, write_start)) {
        SequenceStatePtr victim = Scheduler::pickVictim(running_);
        RELAX_ICHECK(victim) << "no eviction victim";
        if (victim == seq && running_.size() == 1) {
            RELAX_THROW(RuntimeError)
                << "KV budget (" << target_.kv->budgetBytes()
                << " bytes) cannot grow the only running sequence to "
                << tokens << " positions";
        }
        evict(victim);
        if (victim == seq) return;
    }
    target_.kv->reserveWrite(seq->request.id, tokens, write_start);
}

NDArray
Engine::invokeRaggedOn(ModelRunner& model,
                       const std::vector<RequestId>& order,
                       const std::vector<std::vector<int64_t>>& tokens)
{
    KVCacheManager& kv = *model.kv;
    int64_t table_width = 1;
    for (RequestId id : order) {
        table_width = std::max(table_width, kv.pagesOf(id));
    }
    // ids, lens, cu_fresh and the block table are the only
    // host-marshalled inputs; cache data stays in the pool
    // (relayoutBytes stays 0 — any future host-side cache copy must be
    // added to that counter).
    NDArray ids = packedIdsTensor(tokens, model.ranks[0]->dataMode());
    NDArray lens = kv.lengthsView(order);
    NDArray cu = cuFreshTensor(tokens);
    NDArray table = kv.blockTableView(order, table_width);

    // Every rank gets the SAME host metadata tensors (shared handles —
    // there is one logical batch) but its own pool slice and weight
    // slice; the lockstep driver prices the ccl.* sites as group
    // collectives. Rank 0's result carries the full logits (the
    // all_gather materializes them on every rank).
    std::vector<std::vector<vm::Value>> args(model.ranks.size());
    for (size_t r = 0; r < args.size(); ++r) {
        const std::vector<NDArray>& pools = kv.poolTensors((int)r);
        args[r].reserve(4 + pools.size() + model.weights[r].size());
        args[r].emplace_back(ids);
        args[r].emplace_back(lens);
        args[r].emplace_back(cu);
        args[r].emplace_back(table);
        for (const NDArray& pool : pools) args[r].emplace_back(pool);
        for (const NDArray& w : model.weights[r]) args[r].emplace_back(w);
    }
    std::vector<vm::Value> results = vm::VirtualMachine::invokeLockstep(
        model.ranks, *model.group, "decode_ragged", args);
    auto out = std::get<vm::TupleValuePtr>(results[0]);
    return std::get<NDArray>(out->fields[0]);
}

void
Engine::proposeDrafts(const std::vector<SequenceStatePtr>& rows,
                      const std::map<RequestId, int64_t>& spec_k,
                      std::map<RequestId, SpecPlan>& plans)
{
    // --- catch-up: the draft pool may lag the target's committed
    // context (just-admitted rows, the bonus token of an all-accept
    // step, re-admission after eviction). Replay each row's token
    // stream into the draft pool, chunked under the prefill-token cap
    // so one call never exceeds the compiled packed-token bound.
    int64_t cap = std::max<int64_t>(
        scheduler_.options().maxPrefillTokensPerStep, 1);
    while (true) {
        std::vector<RequestId> order;
        std::vector<std::vector<int64_t>> chunks;
        std::vector<int64_t> new_commits;
        int64_t total = 0;
        for (const SequenceStatePtr& seq : rows) {
            RequestId id = seq->request.id;
            int64_t have = draft_->kv->committedTokens(id);
            int64_t want = seq->ctxLen;
            if (have >= want || total >= cap) continue;
            int64_t take = std::min(want - have, cap - total);
            std::vector<int64_t> stream = seq->prefillTokens();
            chunks.emplace_back(stream.begin() + have,
                                stream.begin() + have + take);
            order.push_back(id);
            new_commits.push_back(have + take);
            draft_->kv->reserveWrite(id, have + take, have);
            total += take;
        }
        if (order.empty()) break;
        invokeRaggedOn(*draft_, order, chunks);
        ++stats_.draftCalls;
        metrics_.counter("serve.draft_calls").add();
        for (size_t i = 0; i < order.size(); ++i) {
            draft_->kv->commit(order[i], new_commits[i]);
        }
    }

    // --- propose: k batched single-token draft decodes. Call j feeds
    // each row its previous draft token (the pending target token for
    // j = 0) and samples the next proposal from the draft logits; rows
    // whose per-row budget ran out drop from later calls.
    int64_t max_k = 0;
    for (const auto& [id, k_row] : spec_k) max_k = std::max(max_k, k_row);
    for (int64_t j = 0; j < max_k; ++j) {
        std::vector<RequestId> order;
        std::vector<std::vector<int64_t>> toks;
        std::vector<SequenceStatePtr> call_rows;
        for (const SequenceStatePtr& seq : rows) {
            RequestId id = seq->request.id;
            auto it = spec_k.find(id);
            if (it == spec_k.end() || it->second <= j) continue;
            const SpecPlan& plan = plans[id];
            int64_t tok = j == 0 ? seq->generated.back()
                                 : plan.drafts.back();
            draft_->kv->reserveWrite(id, seq->ctxLen + j + 1,
                                     seq->ctxLen + j);
            order.push_back(id);
            toks.push_back({tok});
            call_rows.push_back(seq);
        }
        if (order.empty()) break;
        NDArray logits = invokeRaggedOn(*draft_, order, toks);
        ++stats_.draftCalls;
        metrics_.counter("serve.draft_calls").add();
        for (size_t r = 0; r < order.size(); ++r) {
            SpecPlan& plan = plans[order[r]];
            // One fresh token per row, so row r's logits sit at packed
            // position r (== cu[r + 1] - 1).
            if (machine().dataMode()) {
                plan.drafts.push_back(
                    draftSampler_.samplePacked(logits, (int64_t)r));
                if (options_.sampler.topK > 1) {
                    plan.probs.push_back(
                        draftSampler_.topKProbs(logits, (int64_t)r));
                }
            } else {
                plan.drafts.push_back(
                    draftSampler_.sampleSynthetic(config_.vocabSize));
            }
            draft_->kv->commit(order[r], call_rows[r]->ctxLen + j + 1);
        }
    }

    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        for (const SequenceStatePtr& seq : rows) {
            auto it = plans.find(seq->request.id);
            if (it == plans.end()) continue;
            trace.instant(trace_lanes::kEngine, trace_lanes::kSpeculation,
                          "propose", "speculation",
                          machine().dev().clockUs(),
                          {{"request", seq->request.id},
                           {"tokens", (int64_t)it->second.drafts.size()}});
        }
    }
}

bool
Engine::step()
{
    if (!hasPendingWork()) return false;
    double clock_before = machine().dev().clockUs();

    std::vector<SequenceStatePtr> admitted =
        scheduler_.admit(*target_.kv, (int64_t)running_.size());
    for (const SequenceStatePtr& seq : admitted) {
        seq->admitSeq = nextAdmitSeq_++;
        running_.push_back(seq);
    }

    int64_t spec_budget =
        speculationEnabled() ? options_.speculation.draftTokens : 0;

    // Own every row's write range up front (this may evict, including
    // rows admitted above — phases are re-checked when the batch is
    // built). Admitted rows write their fresh prompt tail starting at
    // the committed (possibly prefix-matched) offset; running rows grow
    // by one decode position plus their speculation window. The whole
    // sweep shares one COW pricing batch, so b sequences copying shared
    // pages in the same step pay one burst launch, not b.
    std::map<RequestId, int64_t> spec_k;
    std::vector<SequenceStatePtr> members = running_;
    target_.kv->beginCowBatch();
    for (const SequenceStatePtr& seq : members) {
        bool is_admitted = std::find(admitted.begin(), admitted.end(),
                                     seq) != admitted.end();
        if (is_admitted) {
            ensureWritable(seq, seq->prefillLength(),
                           target_.kv->committedTokens(seq->request.id));
            continue;
        }
        int64_t k_row = 0;
        if (spec_budget > 0) {
            // Per-row window: never propose past the request's token
            // budget or the context ceiling (the verify row writes
            // k+1 positions), and degrade speculation before letting
            // it evict anyone — pressure behavior must match k=0.
            k_row = std::min(spec_budget,
                             seq->request.maxNewTokens -
                                 (int64_t)seq->generated.size() - 1);
            k_row = std::min(k_row, config_.maxContext - seq->ctxLen - 1);
            k_row = std::max<int64_t>(k_row, 0);
            while (k_row > 0 &&
                   !target_.kv->canHoldWrite(seq->request.id,
                                      seq->ctxLen + 1 + k_row,
                                      seq->ctxLen)) {
                --k_row;
            }
        }
        ensureWritable(seq, seq->ctxLen + 1 + k_row, seq->ctxLen);
        if (k_row > 0) spec_k[seq->request.id] = k_row;
    }
    target_.kv->flushCowBatch();

    // Draft proposals for the rows that survived the reservation sweep
    // (eviction may have reclaimed some).
    std::map<RequestId, SpecPlan> plans;
    if (!spec_k.empty()) {
        std::vector<SequenceStatePtr> spec_rows;
        for (const SequenceStatePtr& seq : running_) {
            if (seq->phase == RequestPhase::kRunning &&
                spec_k.count(seq->request.id) > 0) {
                spec_rows.push_back(seq);
            }
        }
        if (!spec_rows.empty()) proposeDrafts(spec_rows, spec_k, plans);
    }

    // One packed-varlen call per step: prefill chunks, n=1 decode rows
    // and n=k+1 verify rows ride together — row r owns packed positions
    // [cu[r], cu[r+1]). A verify row's fresh tokens are its pending
    // token followed by the draft proposals.
    std::vector<SequenceStatePtr> batch;
    std::vector<RequestId> order;
    std::vector<std::vector<int64_t>> tokens;
    std::vector<bool> is_prefill;
    for (const SequenceStatePtr& seq : running_) {
        if (seq->phase != RequestPhase::kRunning) continue;
        bool admitted_now = std::find(admitted.begin(), admitted.end(),
                                      seq) != admitted.end();
        if (admitted_now) {
            std::vector<int64_t> all = seq->prefillTokens();
            int64_t start = target_.kv->committedTokens(seq->request.id);
            tokens.emplace_back(all.begin() + start, all.end());
        } else {
            std::vector<int64_t> fresh{seq->generated.back()};
            auto plan_it = plans.find(seq->request.id);
            if (plan_it != plans.end()) {
                fresh.insert(fresh.end(), plan_it->second.drafts.begin(),
                             plan_it->second.drafts.end());
            }
            tokens.push_back(std::move(fresh));
        }
        batch.push_back(seq);
        order.push_back(seq->request.id);
        is_prefill.push_back(admitted_now);
    }
    if (batch.empty()) return false;

    NDArray logits = invokeRaggedOn(target_, order, tokens);
    ++stats_.decodeBatches; // one packed call per step, by construction
    bool any_prefill =
        std::find(is_prefill.begin(), is_prefill.end(), true) !=
        is_prefill.end();
    if (any_prefill) {
        // Mixed steps move the shape signature (the packed token count
        // changes), so their graph begins/replays are accounted to the
        // prefill counters; the steady-state pure-decode counters keep
        // measuring the replay win.
        ++stats_.prefillBatches;
        stats_.prefillGraphBegins += machine().lastRunStats().graphBegins;
        stats_.prefillGraphReplays +=
            machine().lastRunStats().graphReplays;
    } else {
        stats_.decodeGraphBegins += machine().lastRunStats().graphBegins;
        stats_.decodeGraphReplays +=
            machine().lastRunStats().graphReplays;
    }

    TraceRecorder& trace = machine().dev().trace();
    double clock_after = machine().dev().clockUs();
    int64_t packed_end = 0;
    for (size_t row = 0; row < batch.size(); ++row) {
        const SequenceStatePtr& seq = batch[row];
        RequestId id = seq->request.id;
        int64_t fresh = (int64_t)tokens[row].size();
        int64_t packed_start = packed_end; // == cu[row]
        packed_end += fresh;               // == cu[row + 1]
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kRequests,
                          is_prefill[row] ? "prefill" : "decode", "phase",
                          clock_after,
                          {{"request", id}, {"tokens", fresh}});
        }
        if (is_prefill[row]) {
            seq->ctxLen = seq->prefillLength();
            target_.kv->commit(id, seq->ctxLen);
            seq->stats.prefillTokens += fresh;
            stats_.prefillTokens += fresh;
            // Register the freshly committed page-aligned blocks in the
            // prefix index so later duplicate prompts match them.
            target_.kv->registerCommitted(id, seq->prefillTokens());
            appendToken(seq, sampleFor(logits, packed_end - 1));
            continue;
        }
        auto plan_it = plans.find(id);
        if (plan_it == plans.end()) {
            // Plain decode row (speculation off, or this row's window
            // collapsed to zero).
            seq->ctxLen += 1;
            target_.kv->commit(id, seq->ctxLen);
            appendToken(seq, sampleFor(logits, packed_end - 1));
            continue;
        }

        // Verify row: the packed positions [packed_start, packed_end)
        // hold the target distributions for the pending token and every
        // draft; accept a prefix, emit its tokens exactly as sequential
        // decode steps would (stop token / budget / context checks per
        // token), then roll both caches back to the accepted stream.
        const SpecPlan& plan = plan_it->second;
        int64_t k_row = (int64_t)plan.drafts.size();
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kSpeculation,
                          "verify", "speculation", clock_after,
                          {{"request", id}, {"proposed", k_row}});
        }
        SpecAcceptance acc;
        if (machine().dataMode()) {
            acc = sampler_.acceptDrafts(logits, packed_start, plan.drafts,
                                        plan.probs);
        } else {
            acc.accepted = sampler_.sampleSyntheticAcceptance(
                k_row, options_.speculation.syntheticAcceptanceRate);
            acc.next = sampler_.sampleSynthetic(config_.vocabSize);
        }
        stats_.specProposed += k_row;
        stats_.specAccepted += acc.accepted;
        metrics_.counter("serve.spec_proposed_tokens").add(k_row);
        metrics_.counter("serve.spec_accepted_tokens").add(acc.accepted);
        metrics_.histogram("serve.spec_accepted").record(
            (double)acc.accepted);
        for (int64_t i = 0;
             i <= acc.accepted && seq->phase == RequestPhase::kRunning;
             ++i) {
            seq->ctxLen += 1;
            target_.kv->commit(id, seq->ctxLen);
            appendToken(seq, i < acc.accepted ? plan.drafts[i] : acc.next);
        }
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kSpeculation,
                          "accept", "speculation",
                          machine().dev().clockUs(),
                          {{"request", id},
                           {"proposed", k_row},
                           {"accepted", acc.accepted}});
        }
        if (seq->phase == RequestPhase::kRunning) {
            // Rejected drafts leave K/V junk past the committed length
            // and surplus reserved pages: return whole pages and drop
            // any index entry the rewind invalidated. The draft cache
            // rewinds to the accepted stream the same way (clamped to a
            // no-op when every draft survived).
            target_.kv->truncate(id, seq->ctxLen);
            draft_->kv->truncate(id, seq->ctxLen);
        }
    }

    ++stats_.steps;
    stats_.busyUs += machine().dev().clockUs() - clock_before;
    stats_.peakKvBytes = std::max(stats_.peakKvBytes, target_.kv->peakBytes());

    // Per-step registry sampling (always on: the counters feed the fuzz
    // oracle's cross-checks, the gauges the BENCH_serve.json snapshot).
    metrics_.counter("serve.steps").add();
    metrics_.counter("serve.decode_calls").add();
    metrics_.gauge("kv.used_pages").sample((double)target_.kv->usedPages());
    metrics_.gauge("kv.free_pages").sample((double)target_.kv->freePages());
    metrics_.gauge("kv.occupancy")
        .sample(target_.kv->totalPages() > 0 ? (double)target_.kv->usedPages() /
                                            (double)target_.kv->totalPages()
                                      : 0.0);
    metrics_.gauge("serve.running").sample((double)running_.size());
    metrics_.gauge("serve.decode_replay_hit_rate")
        .sample(stats_.decodeReplayHitRate());
    // Per-device memory gauges, one lane per shard (device 0 alone on
    // single-device engines, matching the trace pid layout).
    for (int i = 0; i < tensorParallel(); ++i) {
        device::SimDevice& dev = target_.group->device(i);
        std::string prefix = "device." + std::to_string(i) + ".";
        metrics_.gauge(prefix + "alloc_bytes")
            .sample((double)dev.allocatedBytes());
        metrics_.gauge(prefix + "peak_bytes")
            .sample((double)dev.peakBytes());
    }
    if (speculationEnabled()) {
        metrics_.gauge("serve.spec_acceptance_rate")
            .sample(stats_.specAcceptanceRate());
    }

    if (trace.enabled()) {
        trace.span(trace_lanes::kEngine, trace_lanes::kSteps, "step",
                   "step", clock_before, clock_after - clock_before,
                   {{"step", stats_.steps - 1},
                    {"rows", (int64_t)batch.size()},
                    {"fresh_tokens", packed_end},
                    {"mixed", (int64_t)(any_prefill ? 1 : 0)}});
        trace.counter(trace_lanes::kEngine, trace_lanes::kKvPool,
                      "kv_pages", clock_after,
                      {{"used", target_.kv->usedPages()},
                       {"free", target_.kv->freePages()}});
    }
    return true;
}

const EngineStats&
Engine::run()
{
    while (hasPendingWork()) {
        if (!step()) {
            RELAX_THROW(RuntimeError)
                << "serving stalled: " << scheduler_.waitingCount()
                << " waiting request(s) cannot fit the KV budget ("
                << target_.kv->budgetBytes() << " bytes)";
        }
    }
    return stats_;
}

std::vector<FinishedRequest>
Engine::collect()
{
    std::sort(finished_.begin(), finished_.end(),
              [](const SequenceStatePtr& a, const SequenceStatePtr& b) {
                  return a->request.id < b->request.id;
              });
    std::vector<FinishedRequest> results;
    results.reserve(finished_.size());
    for (const SequenceStatePtr& seq : finished_) {
        FinishedRequest done;
        done.id = seq->request.id;
        done.promptTokens = seq->request.promptTokens;
        done.outputTokens = seq->generated;
        done.stats = seq->stats;
        results.push_back(std::move(done));
    }
    finished_.clear();
    return results;
}

} // namespace serve
} // namespace relax
