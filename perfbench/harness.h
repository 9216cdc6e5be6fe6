/**
 * @file
 * Shared pieces of the benchmark: the host clock, order statistics, the
 * simulated-kernel tally drained from the device trace, the per-pass result
 * record, and the helpers that compile models (through frontend::compile,
 * or through a per-pass mirror of it for attribution) and price dense
 * batch-1 calls on a fresh device.
 */
#ifndef RELAX_PERFBENCH_HARNESS_H_
#define RELAX_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "support/trace.h"
#include "vm/vm.h"

namespace relax {
namespace perfbench {

/** Host steady-clock time in microseconds since the first call. */
double nowUs();

/** Nearest-rank percentile, index round((n - 1) * p) — the convention
 *  of the repo's MetricsRegistry histograms. 0 for an empty sample. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);

/** Trace lane (pid) of the host spans a traced run records around public
 *  calls; above the program's own lanes (see trace_lanes). */
constexpr int kHostSpanPid = 200;

/**
 * Simulated device time split by kernel class, drained from a device's
 * TraceRecorder after each engine step or call (then cleared, so a long
 * traced run holds one step of events at a time). Each kernel span's
 * duration is its roofline time plus its launch overhead; the overhead
 * goes to `launch`, the rest to the class the kernel name selects.
 * Bytes are the cost model's bytes, computed from tensor sizes. The
 * engine's step spans and admit events are tallied on the way.
 */
struct KernelTally
{
    enum Class { kMatmul, kAttention, kElementwise, kKv, kNumClasses };

    double busyUs[kNumClasses] = {};
    double launchUs = 0.0;
    double bytes = 0.0;
    /** Time the matmul bytes take at the device's memory bandwidth: over
     *  busyUs[kMatmul] it is the achieved share of bandwidth. */
    double matmulPeakBwUs = 0.0;
    int64_t stepSpans = 0; //!< engine step spans seen
    int64_t stepRows = 0;  //!< summed "rows" of those spans
    /** Tokens each admission mapped onto cached pages / left to prefill
     *  (from the scheduler's admit events). */
    int64_t admittedMatched = 0;
    int64_t admittedFresh = 0;

    void drain(TraceRecorder& trace, const device::DeviceSpec& spec);
};

/**
 * Host-speed yardstick. On a shared machine the speed of each CPU drifts
 * with other load by tens of percent within seconds. Between pieces of
 * measured work, at most every kIntervalUs, a pass runs the yardstick
 * binary relax_perfbench_yardstick (a fixed chunk of allocations and map
 * lookups that links nothing of the program) in its own process on the
 * pass's own CPU, waits for it and records its chunk time. End-to-end host
 * metrics divide each measured interval by the slowdown of the yardstick
 * runs during it, or of the latest run before it (mean chunk time /
 * kNominalChunkUs), that is, they are reported at the speed of a CPU that
 * runs one chunk in kNominalChunkUs. The yardstick's own time is left out
 * of the measured intervals.
 */
class Yardstick
{
  public:
    static constexpr double kNominalChunkUs = 3000.0;
    static constexpr double kIntervalUs = 250e3;

    explicit Yardstick(std::string binary) : binary_(std::move(binary)) {}

    /** Runs the yardstick when kIntervalUs passed since the last run;
     *  throws when it cannot run or reports nothing. */
    void tick();
    /** Host time spent running the yardstick so far. */
    double spentUs() const { return spentUs_; }
    /** Yardstick runs so far. */
    size_t runs() const { return chunkUs_.size(); }
    /** Mean chunk time over nominal of the runs from index `first` on, or
     *  of the latest run when none came since; 1 before any run. */
    double slowdownSince(size_t first = 0) const;

  private:
    std::string binary_;
    double lastUs_ = 0.0;
    double spentUs_ = 0.0;
    std::vector<double> chunkUs_;
};

/** What one pass of a workload produced. */
struct PassOut
{
    double hostUs = 0.0;
    /** Host time spent in traced-only integrity checks, which the
     *  reported tracing overhead leaves out. */
    double checkUs = 0.0;
    std::vector<double> setupS;   //!< one sample per set-up
    std::vector<double> hostTokS; //!< tokens per host second, per pass
    /** Deterministic simulated metrics and counts: the end-to-end sim
     *  metrics plus the counts the determinism check compares. */
    std::map<std::string, double> sim;
    /** Per-layer metrics: all of them in a traced pass, the host-time
     *  ones (named *host_us*) in every pass. */
    std::map<std::string, double> layer;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t mismatches = 0;
    std::vector<std::string> errors; //!< failed correctness checks

    void
    check(bool ok, const std::string& what)
    {
        if (!ok) errors.push_back(what);
    }
};

/** Per-run context handed to every workload pass. */
struct RunContext
{
    uint64_t seed = 0;
    bool traced = false;
    /** Host spans around public calls; recording only when traced. */
    TraceRecorder* spans = nullptr;
    Yardstick* yardstick = nullptr;

    /** Records the host span [start_us, end_us) named `name`. */
    void span(std::string name, double start_us, double end_us) const;
};

/** Total VM instructions over all functions of an executable. */
int64_t execInstrs(const vm::Executable& exec);

/**
 * Compiles `config` for `options`: through frontend::compile when the
 * run is untraced, or through the per-pass mirror when traced (each pass
 * and codegen timed into ctx.spans and `layer`). The mirror repeats
 * compile()'s pass order; verifyMirror() asserts it stays equivalent.
 */
vm::ExecutablePtr compileModel(const frontend::LlamaConfig& config,
                               const frontend::CompileOptions& options,
                               const RunContext& ctx,
                               std::map<std::string, double>& layer);

/**
 * Integrity of the traced build: the mirrored executable must match
 * frontend::compile in instruction count, planned storages and the
 * simulated latency of a batch-1 decode at context 128.
 */
void verifyMirror(const vm::ExecutablePtr& mirrored,
                  const frontend::LlamaConfig& config,
                  const frontend::CompileOptions& options, PassOut& out);

/** Metadata-only argument list of a dense batch-1 `decode` at `ctx`. */
std::vector<vm::Value> decodeArgs(const frontend::LlamaConfig& config,
                                  const std::vector<NDArray>& weights,
                                  int64_t ctx);

/** Metadata-only argument list of a batch-1 `prefill` of `tokens`. */
std::vector<vm::Value> prefillArgs(const frontend::LlamaConfig& config,
                                   const std::vector<NDArray>& weights,
                                   int64_t tokens);

/** Simulated latency (us) of one batch-1 dense decode at `ctx` on a
 *  fresh device, after one warm-up call that captures graphs. */
double decodeLatencyUs(const vm::ExecutablePtr& exec,
                       const frontend::LlamaConfig& config,
                       const device::DeviceSpec& spec, int64_t ctx);

/** Host time (us) of one direct tir::run of the first generated matmul
 *  kernel of the tiny model's decode_ragged, median of repeated runs. */
double tirRunHostUs();

/** The host CPU device the data-mode workload runs on. */
device::DeviceSpec hostCpu();

} // namespace perfbench
} // namespace relax

#endif // RELAX_PERFBENCH_HARNESS_H_
