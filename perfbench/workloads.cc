/**
 * @file
 * The four workloads (see workloads.h). Public calls into the program are
 * wrapped in host spans when the run is traced; the simulated numbers
 * come from the engine's statistics and the device clock.
 */
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_set>

#include "reference.h"
#include "serve/engine.h"

namespace relax {
namespace perfbench {
namespace {

constexpr int64_t kBatchCap = 8;
constexpr int64_t kBlockTokens = 16;
constexpr double kTtftSloUs = 1e6;
constexpr double kItlSloUs = 50e3;
/** Share of requests sent that must meet both latency limits. */
constexpr double kSloAttainment = 0.95;

/** Independent generator stream `stream` of a seed. */
std::mt19937_64
streamRng(uint64_t seed, uint64_t stream)
{
    std::seed_seq seq{(uint32_t)seed, (uint32_t)(seed >> 32),
                      (uint32_t)stream};
    return std::mt19937_64(seq);
}

int64_t
uniformInt(std::mt19937_64& rng, int64_t lo, int64_t hi)
{
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

/**
 * `n` draws of U[0, 1), one from each of n equal strata, in shuffled
 * order. Every seed then sees nearly the same empirical distribution of
 * lengths and gaps, so percentiles over one run barely move between seeds,
 * while the values and their order still change with the seed.
 */
std::vector<double>
stratified(std::mt19937_64& rng, size_t n)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> u(n);
    for (size_t i = 0; i < n; ++i) u[i] = ((double)i + unit(rng)) / (double)n;
    std::shuffle(u.begin(), u.end(), rng);
    return u;
}

/** Maps u in [0, 1) onto the integers lo..hi. */
int64_t
scaled(double u, int64_t lo, int64_t hi)
{
    return lo + std::min<int64_t>((int64_t)(u * (double)(hi - lo + 1)),
                                  hi - lo);
}

/** FNV-1a over 64-bit words. */
struct Hasher
{
    uint64_t h = 1469598103934665603ull;

    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

// ---------------------------------------------------------------------------
// Engine set-up and stepping shared by the serving workloads
// ---------------------------------------------------------------------------

struct Request
{
    double dueUs = 0.0; //!< open loop: when the request is due to arrive
    std::vector<int64_t> prompt;
    int64_t maxNew = 0;
};

/** compile + weights + Engine construction: one set-up sample. */
std::unique_ptr<serve::Engine>
buildEngine(const frontend::LlamaConfig& config,
            const frontend::CompileOptions& copts,
            const serve::EngineOptions& eopts, bool data_mode,
            const RunContext& ctx, PassOut& out,
            vm::ExecutablePtr* exec_out = nullptr,
            std::vector<NDArray>* weights_out = nullptr)
{
    ctx.yardstick->tick();
    size_t yardstick_run = ctx.yardstick->runs();
    double t0 = nowUs();
    vm::ExecutablePtr exec = compileModel(config, copts, ctx, out.layer);
    auto dev = std::make_shared<device::SimDevice>(copts.device);
    double w0 = nowUs();
    std::vector<NDArray> weights =
        frontend::makeLlamaWeights(config, data_mode);
    double w1 = nowUs();
    if (weights_out) *weights_out = weights;
    auto engine = std::make_unique<serve::Engine>(
        exec, std::move(dev), data_mode, config, std::move(weights), eopts);
    double t1 = nowUs();
    ctx.span("frontend.makeLlamaWeights", w0, w1);
    ctx.span("serve.Engine::Engine", w1, t1);
    out.setupS.push_back((t1 - t0) / 1e6 /
                         ctx.yardstick->slowdownSince(yardstick_run));
    if (exec_out) *exec_out = exec;
    return engine;
}

/** Steps an engine, timing each step. */
class Stepper
{
  public:
    Stepper(serve::Engine& engine, const RunContext& ctx, KernelTally* tally)
        : engine_(engine), ctx_(ctx), tally_(tally)
    {
    }

    /** One Engine::step; false when it made no progress. */
    bool
    step()
    {
        int64_t prefill_batches = engine_.stats().prefillBatches;
        double t0 = nowUs();
        bool progressed = engine_.step();
        double t1 = nowUs();
        if (!progressed) return false;
        bool mixed = engine_.stats().prefillBatches > prefill_batches;
        ctx_.span(mixed ? "serve.Engine::step(mixed)"
                        : "serve.Engine::step(decode)",
                  t0, t1);
        (mixed ? mixedUs : decodeUs).push_back(t1 - t0);
        if (tally_) {
            device::SimDevice& dev = engine_.machine().dev();
            tally_->drain(dev.trace(), dev.spec());
        }
        ctx_.yardstick->tick();
        return true;
    }

    std::vector<double> decodeUs; //!< host us of pure-decode steps
    std::vector<double> mixedUs;  //!< host us of steps that prefilled

  private:
    serve::Engine& engine_;
    const RunContext& ctx_;
    KernelTally* tally_;
};

/** What a serving run (one rung or probe, or one closed loop) produced. */
struct ServeResult
{
    int64_t sent = 0;
    std::map<serve::RequestId, size_t> requestOf; //!< engine id -> input
    std::vector<double> admitLagUs;
    std::vector<serve::FinishedRequest> done;
    int64_t backlogAtLastArrival = 0;
    bool stalled = false;
};

/** Queues input `index`. A refused request never finishes, so it
 *  counts as failed when the run is checked. */
void
submit(serve::Engine& engine, const std::vector<Request>& requests,
       size_t index, double arrival_us, const RunContext& ctx,
       ServeResult& result)
{
    const Request& request = requests[index];
    ++result.sent;
    double t0 = nowUs();
    try {
        serve::RequestId id = engine.addRequest(
            request.prompt, request.maxNew, /*stop_token=*/-1, arrival_us);
        result.requestOf[id] = index;
    } catch (const std::exception&) {
        return;
    }
    ctx.span("serve.Engine::addRequest", t0, nowUs());
}

void
collectInto(serve::Engine& engine, const RunContext& ctx,
            ServeResult& result)
{
    double t0 = nowUs();
    std::vector<serve::FinishedRequest> done = engine.collect();
    ctx.span("serve.Engine::collect", t0, nowUs());
    for (auto& request : done) result.done.push_back(std::move(request));
}

/**
 * Open loop: each request is added at the first step boundary at or after
 * its due time (the lag is recorded), and its TTFT is measured from the
 * due time. The engine idles the clock forward when nothing is pending.
 */
ServeResult
serveOpenLoop(serve::Engine& engine, const std::vector<Request>& requests,
              const RunContext& ctx, Stepper& stepper)
{
    ServeResult result;
    device::SimDevice& dev = engine.machine().dev();
    size_t next = 0;
    while (next < requests.size() || engine.hasPendingWork()) {
        while (next < requests.size() &&
               requests[next].dueUs <= dev.clockUs()) {
            result.admitLagUs.push_back(dev.clockUs() -
                                        requests[next].dueUs);
            submit(engine, requests, next, requests[next].dueUs, ctx, result);
            if (++next == requests.size()) {
                const serve::EngineStats& stats = engine.stats();
                int64_t running = (int64_t)engine.metrics()
                                      .gauge("serve.running")
                                      .last();
                result.backlogAtLastArrival =
                    result.sent - stats.requestsFinished - running;
            }
        }
        if (!engine.hasPendingWork()) {
            dev.hostOverhead(requests[next].dueUs - dev.clockUs());
            continue;
        }
        if (!stepper.step()) {
            result.stalled = true;
            break;
        }
        collectInto(engine, ctx, result);
    }
    return result;
}

/**
 * Checks a serving result in timing mode or against reference streams,
 * and counts failures: a request that never finished or was refused is
 * failed; one that finished with the wrong output is a mismatch.
 */
void
checkServe(serve::Engine& engine, const ServeResult& result,
           const std::vector<Request>& requests,
           const std::vector<std::vector<int64_t>>* expected, PassOut& out)
{
    out.attempted += result.sent;
    out.failed += result.sent - (int64_t)result.done.size();
    out.check(!result.stalled, "engine stalled with requests pending");
    for (const serve::FinishedRequest& done : result.done) {
        size_t index = result.requestOf.at(done.id);
        bool ok =
            (int64_t)done.outputTokens.size() == requests[index].maxNew;
        if (ok && expected) ok = done.outputTokens == (*expected)[index];
        if (!ok) ++out.mismatches;
    }
    const serve::EngineStats& stats = engine.stats();
    out.check(stats.decodeBatches == stats.steps,
              "decode calls differ from engine steps");
    out.check(stats.relayoutBytes == 0, "nonzero host KV relayout bytes");
}

/** TTFT of every finished request (from its arrival stamp). */
std::vector<double>
ttftsUs(const ServeResult& result)
{
    std::vector<double> ttfts;
    for (const auto& done : result.done) ttfts.push_back(done.stats.ttftUs());
    return ttfts;
}

/** Requests sent that finished within both latency limits. */
int64_t
sloMet(const ServeResult& result)
{
    int64_t met = 0;
    for (const auto& done : result.done) {
        if (done.stats.ttftUs() <= kTtftSloUs &&
            done.stats.meanInterTokenUs() <= kItlSloUs) {
            ++met;
        }
    }
    return met;
}

/** Latency metrics shared by every serving workload. */
void
serveLatencyMetrics(serve::Engine& engine, const ServeResult& result,
                    PassOut& out)
{
    std::vector<double> ttfts = ttftsUs(result);
    const Histogram& itl = engine.metrics().histogram("serve.itl_us");
    out.sim["sim_tok_s"] = engine.stats().tokensPerSec();
    out.sim["sim_ttft_p50_ms"] = percentile(ttfts, 0.50) / 1e3;
    out.sim["sim_ttft_p95_ms"] = percentile(ttfts, 0.95) / 1e3;
    out.sim["sim_itl_p50_ms"] = itl.percentile(0.50) / 1e3;
    out.sim["sim_itl_p99_ms"] = itl.percentile(0.99) / 1e3;
    out.sim["count.ttft_samples"] = (double)ttfts.size();
    out.sim["count.itl_samples"] = (double)itl.count();
}

/** Host step times; recorded in every pass, reported from an untraced
 *  one (tracing the device slows every step). */
void
stepHostMetrics(const Stepper& stepper, PassOut& out)
{
    out.layer["serve.step_host_us.decode.p50"] =
        percentile(stepper.decodeUs, 0.5);
    out.layer["serve.step_host_us.decode.p99"] =
        percentile(stepper.decodeUs, 0.99);
    out.layer["serve.step_host_us.mixed.p50"] =
        percentile(stepper.mixedUs, 0.5);
    out.layer["serve.step_host_us.mixed.p99"] =
        percentile(stepper.mixedUs, 0.99);
}

/** Per-layer metrics of a traced serving run. */
void
serveLayerMetrics(serve::Engine& engine, const ServeResult& result,
                  const KernelTally& tally, PassOut& out)
{
    const serve::EngineStats& stats = engine.stats();
    std::map<std::string, double>& layer = out.layer;
    layer["serve.steps"] = (double)stats.steps;
    layer["serve.rows_per_step_mean"] =
        tally.stepSpans > 0 ? (double)tally.stepRows / tally.stepSpans : 0.0;
    layer["serve.prefill_tokens"] = (double)stats.prefillTokens;
    layer["serve.evictions"] = (double)stats.evictions;
    int64_t preemptions = 0;
    for (const auto& done : result.done) preemptions += done.stats.preemptions;
    layer["serve.preemptions"] = (double)preemptions;
    layer["serve.admit_lag_ms.p99"] = percentile(result.admitLagUs, 0.99) / 1e3;

    // Counted at admission: KVCacheManager::prefixTokensMatched() also
    // counts matches that admission undoes when the request does not fit.
    serve::KVCacheManager& kv = engine.kv();
    int64_t admitted = tally.admittedMatched + tally.admittedFresh;
    layer["kv.prefix_hit_frac"] =
        admitted > 0 ? (double)tally.admittedMatched / (double)admitted : 0.0;
    layer["kv.peak_pages"] = (double)kv.peakPages();
    layer["kv.occupancy_mean"] =
        engine.metrics().gauge("kv.occupancy").mean();
    layer["kv.cow_copies"] = (double)kv.cowCopies();

    vm::VirtualMachine& machine = engine.machine();
    layer["vm.graph_replay_rate"] = machine.graphStats().hitRate();
    layer["vm.kernel_launches_per_step"] =
        stats.steps > 0 ? (double)machine.dev().kernelLaunches() / stats.steps
                        : 0.0;
}

/** device.* per-layer metrics from a kernel tally over `calls` calls. */
void
deviceLayerMetrics(const KernelTally& tally, int64_t calls, PassOut& out)
{
    static const char* names[KernelTally::kNumClasses] = {
        "matmul", "attention", "elementwise", "kv"};
    for (int c = 0; c < KernelTally::kNumClasses; ++c) {
        out.layer[std::string("device.sim_ms.") + names[c]] =
            tally.busyUs[c] / 1e3;
    }
    out.layer["device.sim_ms.launch"] = tally.launchUs / 1e3;
    double matmul_us = tally.busyUs[KernelTally::kMatmul];
    out.layer["device.matmul.bw_frac"] =
        matmul_us > 0 ? tally.matmulPeakBwUs / matmul_us : 0.0;
    out.layer["device.bytes_per_step"] =
        calls > 0 ? tally.bytes / (double)calls : 0.0;
}

/** Executable-shape per-layer metrics. */
void
execLayerMetrics(const vm::Executable& exec, PassOut& out)
{
    int64_t library_calls = 0;
    for (const auto& [name, func] : exec.functions) {
        for (const vm::Instr& instr : func.instrs) {
            if (instr.op == vm::Instr::Op::kKernelCall && instr.isLibrary) {
                ++library_calls;
            }
        }
    }
    auto ragged = exec.functions.find("decode_ragged");
    out.layer["vm.exec_instrs.decode_ragged"] +=
        ragged == exec.functions.end() ? 0.0
                                       : (double)ragged->second.instrs.size();
    out.layer["vm.exec_instrs.all"] += (double)execInstrs(exec);
    out.layer["vm.exec.library_calls"] += (double)library_calls;
}

/** Geometric-mean batch-1 decode latency (ms) at seeded contexts. */
double
decodeMsPerToken(const vm::ExecutablePtr& exec,
                 const frontend::LlamaConfig& config,
                 const device::DeviceSpec& spec,
                 const std::vector<int64_t>& contexts)
{
    std::vector<double> ms;
    for (int64_t ctx : contexts) {
        ms.push_back(decodeLatencyUs(exec, config, spec, ctx) / 1e3);
    }
    return geomean(ms);
}

// ---------------------------------------------------------------------------
// serve_mixed and serve_shared_prefix
// ---------------------------------------------------------------------------

// The nominal rung is lightly loaded, so its latency percentiles depend on
// the inputs' distributions rather than on rare queueing bursts and stay
// steady across seeds.
constexpr double kNominalRps = 2.0;
constexpr size_t kNominalRequests = 200;
// The SLO rate is found by bisection in log space between kSearchMinRps
// and kSearchMaxRps. Each probe serves the same requests in a fresh engine,
// with arrival gaps scaled to its rate. Four probes resolve the rate to
// within a factor of (12 / 5)^(1/16), under 6%; the floor 5 is never
// probed, so it reads "5 or less". A probe's host cost grows with its
// request count (120 requests take about 800 engine steps). More requests
// would steady the rate across seeds: over ten seeds its IQR / median was
// 0.14 at 100 requests and 0.10 at 200.
constexpr double kSearchMinRps = 5.0;
constexpr double kSearchMaxRps = 12.0;
constexpr int kSearchProbes = 4;
constexpr size_t kProbeRequests = 120;
/** Requests still waiting at the last arrival beyond which a probe's
 *  backlog counts as growing. */
constexpr int64_t kMaxBacklog = kBatchCap;

struct ServeSpec
{
    bool shared = false;
    int64_t kvBudgetBytes = 0; //!< 0: the engine's device-derived budget
};

const ServeSpec&
mixedSpec()
{
    static const ServeSpec spec{false, 0};
    return spec;
}

const ServeSpec&
sharedSpec()
{
    // 1 GiB holds 2048 positions (128 pages) of Llama3-8B KV: less than
    // the four system prompts plus eight running tails and outputs.
    static const ServeSpec spec{true, int64_t(1) << 30};
    return spec;
}

struct ServeInputs
{
    std::vector<Request> nominal; //!< due at kNominalRps
    std::vector<Request> probe;   //!< due at 1 req/s; see atRate()
};

ServeInputs
serveInputs(const ServeSpec& spec, uint64_t seed, int64_t vocab)
{
    std::vector<std::vector<int64_t>> system_prompts;
    if (spec.shared) {
        std::mt19937_64 rng = streamRng(seed, 100);
        for (int i = 0; i < 4; ++i) {
            std::vector<int64_t> prompt(384);
            for (auto& token : prompt) token = uniformInt(rng, 0, vocab - 1);
            system_prompts.push_back(std::move(prompt));
        }
    }
    // Unshared prompts start with a token no other prompt starts with, so
    // no KV block can match across requests.
    std::unordered_set<int64_t> first_tokens;
    auto draw = [&](uint64_t stream, size_t count, double rate_rps) {
        std::mt19937_64 rng = streamRng(seed, stream);
        std::vector<double> gaps = stratified(rng, count);
        std::vector<double> lengths = stratified(rng, count);
        std::vector<double> outputs = stratified(rng, count);
        std::vector<double> systems = stratified(rng, count);
        std::vector<Request> requests;
        double t = 0.0;
        for (size_t i = 0; i < count; ++i) {
            Request request;
            // Exponential gaps: a Poisson process at the given rate.
            t += -std::log(1.0 - gaps[i]) / rate_rps * 1e6;
            request.dueUs = t;
            if (spec.shared) {
                request.prompt = system_prompts[scaled(systems[i], 0, 3)];
                int64_t tail = scaled(lengths[i], 8, 32);
                for (int64_t j = 0; j < tail; ++j) {
                    request.prompt.push_back(uniformInt(rng, 0, vocab - 1));
                }
            } else {
                request.prompt.resize(scaled(lengths[i], 16, 512));
                int64_t first;
                do {
                    first = uniformInt(rng, 0, vocab - 1);
                } while (!first_tokens.insert(first).second);
                request.prompt[0] = first;
                for (size_t j = 1; j < request.prompt.size(); ++j) {
                    request.prompt[j] = uniformInt(rng, 0, vocab - 1);
                }
            }
            request.maxNew = scaled(outputs[i], 16, 64);
            requests.push_back(std::move(request));
        }
        return requests;
    };
    ServeInputs inputs;
    inputs.nominal = draw(0, kNominalRequests, kNominalRps);
    inputs.probe = draw(1, kProbeRequests, 1.0);
    return inputs;
}

/** `requests` (due at 1 req/s) with their arrivals at `rate_rps`. */
std::vector<Request>
atRate(std::vector<Request> requests, double rate_rps)
{
    for (Request& request : requests) request.dueUs /= rate_rps;
    return requests;
}

std::vector<int64_t>
decodeContexts(uint64_t seed, int64_t lo, int64_t hi)
{
    std::mt19937_64 rng = streamRng(seed, 200);
    std::vector<int64_t> contexts;
    for (double u : stratified(rng, 4)) contexts.push_back(scaled(u, lo, hi));
    return contexts;
}

void
hashRequests(const std::vector<Request>& requests, Hasher& hasher)
{
    for (const Request& r : requests) {
        hasher.add((uint64_t)(int64_t)r.dueUs);
        hasher.add((uint64_t)r.maxNew);
        for (int64_t token : r.prompt) hasher.add((uint64_t)token);
    }
}

uint64_t
serveInputsHash(const ServeSpec& spec, uint64_t seed)
{
    Hasher hasher;
    ServeInputs inputs = serveInputs(
        spec, seed, frontend::LlamaConfig::llama3_8b().vocabSize);
    hashRequests(inputs.nominal, hasher);
    hashRequests(inputs.probe, hasher);
    for (int64_t ctx : decodeContexts(seed, 128, 1024)) hasher.add(ctx);
    return hasher.h;
}

/** One serving workload pass: the nominal rung, then the SLO-rate search,
 *  each in a fresh engine. */
class ServeRun
{
  public:
    ServeRun(const ServeSpec& spec, const RunContext& ctx, PassOut& out)
        : ctx_(ctx), out_(out)
    {
        config_ = frontend::LlamaConfig::llama3_8b();
        copts_.device = device::rtx4090();
        // One step packs at most the 512-token prefill cap plus seven
        // decode rows, or a whole re-prefill (prompt + output < 648) into
        // an idle engine. The page pool is an argument, not a planned
        // allocation.
        copts_.bounds = {{"b", kBatchCap}, {"n", 648}};
        copts_.graphBucketTokens = kBlockTokens;
        eopts_.scheduler.maxBatchSize = kBatchCap;
        eopts_.scheduler.maxPrefillTokensPerStep = 512;
        eopts_.kvBlockTokens = kBlockTokens;
        eopts_.kvBudgetBytes = spec.kvBudgetBytes;
    }

    int64_t vocab() const { return config_.vocabSize; }

    /**
     * Serves `requests` open loop in a fresh engine; true when at least
     * kSloAttainment of them met both latency limits and the backlog did
     * not grow. The nominal rung also gives the latency and layer
     * metrics; `tag` prefixes its counts.
     */
    bool
    serve(const std::vector<Request>& requests, bool nominal,
          const std::string& tag)
    {
        vm::ExecutablePtr exec;
        auto engine =
            buildEngine(config_, copts_, eopts_, false, ctx_, out_, &exec);
        if (nominal) {
            out_.sim["exec_instrs"] = (double)execInstrs(*exec);
            out_.sim["sim_decode_ms_per_token"] = decodeMsPerToken(
                exec, config_, copts_.device,
                decodeContexts(ctx_.seed, 128, 1024));
            if (ctx_.traced) {
                verifyMirror(exec, config_, copts_, out_);
                execLayerMetrics(*exec, out_);
            }
        }
        bool traced = ctx_.traced && nominal;
        KernelTally tally;
        if (traced) engine->machine().dev().trace().enable();
        Stepper stepper(*engine, ctx_, traced ? &tally : nullptr);
        double serve_start = nowUs();
        double yardstick_start = ctx_.yardstick->spentUs();
        size_t yardstick_run = ctx_.yardstick->runs();
        ServeResult result = serveOpenLoop(*engine, requests, ctx_, stepper);
        serveUs += (nowUs() - serve_start -
                    (ctx_.yardstick->spentUs() - yardstick_start)) /
                   ctx_.yardstick->slowdownSince(yardstick_run);
        const serve::EngineStats& stats = engine->stats();
        serveTokens += stats.tokensGenerated;
        checkServe(*engine, result, requests, nullptr, out_);

        double attainment = (double)sloMet(result) / (double)result.sent;
        prefixTokens += engine->kv().prefixTokensMatched();
        out_.sim[tag + "steps"] = (double)stats.steps;
        out_.sim[tag + "prefill_tokens"] = (double)stats.prefillTokens;
        out_.sim[tag + "evictions"] = (double)stats.evictions;
        out_.sim[tag + "prefix_tokens"] =
            (double)engine->kv().prefixTokensMatched();
        out_.sim[tag + "slo_attainment"] = attainment;
        out_.sim[tag + "backlog"] = (double)result.backlogAtLastArrival;
        out_.sim[tag + "makespan_us"] = engine->machine().dev().clockUs();
        if (nominal) {
            serveLatencyMetrics(*engine, result, out_);
            stepHostMetrics(stepper, out_);
            if (traced) {
                serveLayerMetrics(*engine, result, tally, out_);
                deviceLayerMetrics(tally, tally.stepSpans, out_);
            }
        }
        return attainment >= kSloAttainment &&
               result.backlogAtLastArrival <= kMaxBacklog;
    }

    /** Host time spent serving, over all rungs, at yardstick speed. */
    double serveUs = 0.0;
    int64_t serveTokens = 0;
    int64_t prefixTokens = 0;

  private:
    const RunContext& ctx_;
    PassOut& out_;
    frontend::LlamaConfig config_;
    frontend::CompileOptions copts_;
    serve::EngineOptions eopts_;
};

PassOut
runServe(const ServeSpec& spec, const RunContext& ctx)
{
    PassOut out;
    ServeRun run(spec, ctx, out);
    ServeInputs inputs = serveInputs(spec, ctx.seed, run.vocab());
    run.serve(inputs.nominal, true, "count.nominal.");
    double lo = kSearchMinRps, hi = kSearchMaxRps;
    for (int probe = 0; probe < kSearchProbes; ++probe) {
        double rate = std::sqrt(lo * hi);
        std::string tag = "count.probe" + std::to_string(probe) + ".";
        out.sim[tag + "rate_rps"] = rate;
        bool passed = run.serve(atRate(inputs.probe, rate), false, tag);
        (passed ? lo : hi) = rate;
    }
    out.sim["sim_slo_rate_rps"] = lo;
    out.hostTokS.push_back((double)run.serveTokens / (run.serveUs / 1e6));
    out.layer["vm.invoke_host_us.p50"] = 0.0; // measured on compile_zoo
    out.layer["vm.invoke_host_us.p99"] = 0.0;
    out.layer["tir.step_host_us.p50"] = 0.0; // measured on data_tiny
    if (spec.shared) {
        out.check(run.prefixTokens > 0,
                  "shared-prefix workload matched no prompt prefix");
    } else {
        out.check(run.prefixTokens == 0,
                  "unshared prompts matched a cached prefix");
    }
    return out;
}

PassOut
runServeMixed(const RunContext& ctx)
{
    return runServe(mixedSpec(), ctx);
}

PassOut
runServeShared(const RunContext& ctx)
{
    return runServe(sharedSpec(), ctx);
}

uint64_t
serveMixedInputs(uint64_t seed)
{
    return serveInputsHash(mixedSpec(), seed);
}

uint64_t
serveSharedInputs(uint64_t seed)
{
    return serveInputsHash(sharedSpec(), seed);
}

// ---------------------------------------------------------------------------
// data_tiny
// ---------------------------------------------------------------------------

constexpr int kTinyRequests = 200;
constexpr int kTinyClients = 4;
/** Set-up takes about 10 ms here, so a pass repeats it and setup_s is a
 *  median over several samples. */
constexpr int kTinySetups = 10;

std::vector<Request>
tinyInputs(uint64_t seed)
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    std::mt19937_64 rng = streamRng(seed, 0);
    std::vector<double> lengths = stratified(rng, kTinyRequests);
    std::vector<double> outputs = stratified(rng, kTinyRequests);
    std::vector<Request> requests(kTinyRequests);
    for (size_t i = 0; i < requests.size(); ++i) {
        Request& request = requests[i];
        request.prompt.resize(scaled(lengths[i], 4, 16));
        for (auto& token : request.prompt) {
            token = uniformInt(rng, 0, config.vocabSize - 1);
        }
        request.maxNew = scaled(outputs[i], 4, 12);
    }
    return requests;
}

uint64_t
tinyInputsHash(uint64_t seed)
{
    Hasher hasher;
    hashRequests(tinyInputs(seed), hasher);
    for (int64_t ctx : decodeContexts(seed, 8, 48)) hasher.add(ctx);
    return hasher.h;
}

PassOut
runDataTiny(const RunContext& ctx)
{
    PassOut out;
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions copts;
    copts.device = hostCpu();
    serve::EngineOptions eopts;
    eopts.scheduler.maxBatchSize = kBatchCap;
    eopts.kvBlockTokens = kBlockTokens;
    std::vector<Request> requests = tinyInputs(ctx.seed);

    vm::ExecutablePtr exec;
    std::vector<NDArray> weights;
    std::unique_ptr<serve::Engine> engine;
    for (int i = 0; i < kTinySetups; ++i) {
        engine.reset();
        engine = buildEngine(config, copts, eopts, true, ctx, out, &exec,
                             &weights);
    }
    out.sim["exec_instrs"] = (double)execInstrs(*exec);
    out.sim["sim_decode_ms_per_token"] = decodeMsPerToken(
        exec, config, copts.device, decodeContexts(ctx.seed, 8, 48));
    if (ctx.traced) {
        verifyMirror(exec, config, copts, out);
        execLayerMetrics(*exec, out);
    }

    // Closed loop: each client sends its next request when its previous
    // one completes; TTFT is measured from that send.
    KernelTally tally;
    if (ctx.traced) engine->machine().dev().trace().enable();
    Stepper stepper(*engine, ctx, ctx.traced ? &tally : nullptr);
    ServeResult result;
    double serve_start = nowUs();
    double yardstick_start = ctx.yardstick->spentUs();
    size_t yardstick_run = ctx.yardstick->runs();
    size_t next = 0;
    for (; next < (size_t)kTinyClients; ++next) {
        submit(*engine, requests, next, -1.0, ctx, result);
    }
    while (engine->hasPendingWork()) {
        if (!stepper.step()) {
            result.stalled = true;
            break;
        }
        size_t before = result.done.size();
        collectInto(*engine, ctx, result);
        for (size_t i = before; i < result.done.size(); ++i) {
            if (next < requests.size()) {
                submit(*engine, requests, next++, -1.0, ctx, result);
            }
        }
    }
    double serve_us = (nowUs() - serve_start -
                       (ctx.yardstick->spentUs() - yardstick_start)) /
                      ctx.yardstick->slowdownSince(yardstick_run);
    out.hostTokS.push_back((double)engine->stats().tokensGenerated /
                           (serve_us / 1e6));
    std::vector<double> step_us = stepper.decodeUs;
    step_us.insert(step_us.end(), stepper.mixedUs.begin(),
                   stepper.mixedUs.end());

    ReferenceLlama reference(config, weights);
    std::vector<std::vector<int64_t>> expected;
    for (const Request& request : requests) {
        expected.push_back(reference.generate(request.prompt, request.maxNew));
    }
    checkServe(*engine, result, requests, &expected, out);
    out.check(result.sent == kTinyRequests, "closed loop sent too few");

    serveLatencyMetrics(*engine, result, out);
    // A closed loop has no rate search: the rate it sustained within the
    // limits is its SLO-meeting completions per simulated second.
    out.sim["sim_slo_rate_rps"] = (double)sloMet(result) /
                                  (engine->machine().dev().clockUs() / 1e6);
    out.sim["count.steps"] = (double)engine->stats().steps;
    out.sim["count.tokens"] = (double)engine->stats().tokensGenerated;
    stepHostMetrics(stepper, out);
    out.layer["tir.step_host_us.p50"] = percentile(step_us, 0.5);
    out.layer["vm.invoke_host_us.p50"] = 0.0; // measured on compile_zoo
    out.layer["vm.invoke_host_us.p99"] = 0.0;
    if (ctx.traced) {
        serveLayerMetrics(*engine, result, tally, out);
        deviceLayerMetrics(tally, tally.stepSpans, out);
    }
    return out;
}

// ---------------------------------------------------------------------------
// compile_zoo
// ---------------------------------------------------------------------------

constexpr int kZooPrompts = 17;
constexpr int kZooContexts = 8;
constexpr int kZooDecodesPerContext = 11;
/** Output length of the lone request the serial SLO rate assumes. */
constexpr int64_t kZooOutputTokens = 64;

std::vector<frontend::LlamaConfig>
zooModels()
{
    return {frontend::LlamaConfig::llama3_8b(),
            frontend::LlamaConfig::gemma1_1_7b(),
            frontend::LlamaConfig::qwen2_7b(),
            frontend::LlamaConfig::llama3_8b().withQuant(frontend::Quant::kQ4)};
}

std::vector<device::DeviceSpec>
zooDevices()
{
    return {device::rtx4090(), device::radeon7900xtx(),
            device::appleM2Ultra()};
}

struct ZooInputs
{
    std::vector<int64_t> prompts;  //!< prefill lengths
    std::vector<int64_t> contexts; //!< decode KV lengths
};

std::vector<ZooInputs>
zooInputs(uint64_t seed)
{
    std::vector<ZooInputs> pairs(zooModels().size() * zooDevices().size());
    for (size_t p = 0; p < pairs.size(); ++p) {
        std::mt19937_64 rng = streamRng(seed, 300 + p);
        for (double u : stratified(rng, kZooPrompts)) {
            pairs[p].prompts.push_back(scaled(u, 64, 512));
        }
        for (double u : stratified(rng, kZooContexts)) {
            pairs[p].contexts.push_back(scaled(u, 128, 1024));
        }
    }
    return pairs;
}

uint64_t
zooInputsHash(uint64_t seed)
{
    Hasher hasher;
    for (const ZooInputs& pair : zooInputs(seed)) {
        for (int64_t n : pair.prompts) hasher.add(n);
        for (int64_t m : pair.contexts) hasher.add(m);
    }
    return hasher.h;
}

PassOut
runCompileZoo(const RunContext& ctx)
{
    PassOut out;
    std::vector<ZooInputs> inputs = zooInputs(ctx.seed);
    std::vector<double> ttft_us, itl_us, invoke_host_us;
    std::vector<double> pair_decode_ms, pair_serial_rps;
    KernelTally tally;
    int64_t priced_decodes = 0, graph_begins = 0, graph_replays = 0;
    int64_t launches = 0;
    double setup_us = 0.0, invoke_us = 0.0; // at yardstick speed
    size_t pair = 0;
    for (const frontend::LlamaConfig& model : zooModels()) {
        for (const device::DeviceSpec& spec : zooDevices()) {
            const ZooInputs& in = inputs[pair++];
            frontend::LlamaConfig config = model;
            config.fixedBatch = 1;
            frontend::CompileOptions copts;
            copts.device = spec;
            copts.bounds = {{"n", 512}, {"m", 1024}};

            ctx.yardstick->tick();
            size_t yardstick_run = ctx.yardstick->runs();
            double t0 = nowUs();
            vm::ExecutablePtr exec =
                compileModel(config, copts, ctx, out.layer);
            auto dev = std::make_shared<device::SimDevice>(spec);
            std::vector<NDArray> weights =
                frontend::makeLlamaWeights(config, /*with_data=*/false);
            vm::VirtualMachine machine(exec, dev, /*data_mode=*/false);
            setup_us +=
                (nowUs() - t0) / ctx.yardstick->slowdownSince(yardstick_run);
            out.sim["exec_instrs"] += (double)execInstrs(*exec);
            ++out.attempted;
            if (ctx.traced) {
                verifyMirror(exec, config, copts, out);
                execLayerMetrics(*exec, out);
            }

            std::vector<double> pair_ttft, pair_itl;
            for (int64_t tokens : in.prompts) {
                auto args = prefillArgs(config, weights, tokens);
                machine.invoke("prefill", args);
                machine.invoke("prefill", args);
                pair_ttft.push_back(machine.lastRunStats().latencyUs);
                ++out.attempted;
            }
            yardstick_run = ctx.yardstick->runs();
            double pair_invoke_us = 0.0;
            for (int64_t context : in.contexts) {
                auto args = decodeArgs(config, weights, context);
                machine.invoke("decode", args);
                if (ctx.traced) dev->trace().enable();
                for (int i = 0; i < kZooDecodesPerContext; ++i) {
                    double h0 = nowUs();
                    machine.invoke("decode", args);
                    double h1 = nowUs();
                    ctx.span("vm.invoke(decode)", h0, h1);
                    invoke_host_us.push_back(h1 - h0);
                    pair_invoke_us += h1 - h0;
                    const vm::RunStats& stats = machine.lastRunStats();
                    pair_itl.push_back(stats.latencyUs);
                    graph_begins += stats.graphBegins;
                    graph_replays += stats.graphReplays;
                    launches += stats.kernelLaunches;
                    ++out.attempted;
                    ++priced_decodes;
                }
                if (ctx.traced) {
                    tally.drain(dev->trace(), spec);
                    dev->trace().enable(false);
                }
            }
            // Timed after the calls, not between them: a yardstick run
            // evicts the caches the next call would find warm.
            ctx.yardstick->tick();
            invoke_us +=
                pair_invoke_us / ctx.yardstick->slowdownSince(yardstick_run);
            double decode_us = 0.0;
            for (double us : pair_itl) decode_us += us;
            decode_us /= (double)pair_itl.size();
            pair_decode_ms.push_back(decode_us / 1e3);
            pair_serial_rps.push_back(
                1e6 / (median(pair_ttft) +
                       (double)(kZooOutputTokens - 1) * median(pair_itl)));
            ttft_us.insert(ttft_us.end(), pair_ttft.begin(), pair_ttft.end());
            itl_us.insert(itl_us.end(), pair_itl.begin(), pair_itl.end());
        }
    }
    out.setupS.push_back(setup_us / 1e6);
    double decode_ms = geomean(pair_decode_ms);
    out.sim["sim_decode_ms_per_token"] = decode_ms;
    out.sim["sim_tok_s"] = 1e3 / decode_ms;
    out.sim["sim_ttft_p50_ms"] = percentile(ttft_us, 0.50) / 1e3;
    out.sim["sim_ttft_p95_ms"] = percentile(ttft_us, 0.95) / 1e3;
    out.sim["sim_itl_p50_ms"] = percentile(itl_us, 0.50) / 1e3;
    out.sim["sim_itl_p99_ms"] = percentile(itl_us, 0.99) / 1e3;
    // No serving here: the rate is what one device sustains serving lone
    // requests back to back (prefill + 63 decodes each), geomean over pairs.
    out.sim["sim_slo_rate_rps"] = geomean(pair_serial_rps);
    out.sim["count.ttft_samples"] = (double)ttft_us.size();
    out.sim["count.itl_samples"] = (double)itl_us.size();
    // Each batch-1 decode call generates one token.
    out.hostTokS.push_back((double)invoke_host_us.size() / (invoke_us / 1e6));
    out.layer["vm.invoke_host_us.p50"] = percentile(invoke_host_us, 0.5);
    out.layer["vm.invoke_host_us.p99"] = percentile(invoke_host_us, 0.99);
    // No engine serves here.
    for (const char* name :
         {"serve.step_host_us.decode.p50", "serve.step_host_us.decode.p99",
          "serve.step_host_us.mixed.p50", "serve.step_host_us.mixed.p99",
          "tir.step_host_us.p50"}) {
        out.layer[name] = 0.0;
    }
    if (ctx.traced) {
        for (const char* name :
             {"serve.steps", "serve.rows_per_step_mean",
              "serve.prefill_tokens", "serve.evictions", "serve.preemptions",
              "serve.admit_lag_ms.p99", "kv.prefix_hit_frac", "kv.peak_pages",
              "kv.occupancy_mean", "kv.cow_copies"}) {
            out.layer[name] = 0.0;
        }
        deviceLayerMetrics(tally, priced_decodes, out);
        out.layer["vm.graph_replay_rate"] =
            graph_begins > 0 ? (double)graph_replays / graph_begins : 0.0;
        out.layer["vm.kernel_launches_per_step"] =
            (double)launches / (double)priced_decodes;
    }
    return out;
}

} // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"serve_mixed", runServeMixed, serveMixedInputs},
        {"serve_shared_prefix", runServeShared, serveSharedInputs},
        {"data_tiny", runDataTiny, tinyInputsHash},
        {"compile_zoo", runCompileZoo, zooInputsHash},
    };
    return all;
}

} // namespace perfbench
} // namespace relax
