/**
 * @file
 * TraceRecorder: event-level observability on the simulated device's
 * virtual clock. Every layer of the stack emits timestamped events into
 * one recorder owned by the SimDevice (the clock owner, so there is a
 * single clock domain per trace):
 *
 *  - device lane: per-kernel launch spans (flops/bytes/replay-flagged)
 *    and alloc/free instants + an allocated-bytes counter track;
 *  - vm lane: call-frame spans per invoke() and execution-graph region
 *    spans flagged capture vs replay, with the bucketed signature;
 *  - engine lane: step spans (mixed vs pure-decode), per-request
 *    lifecycle events keyed by request id (arrival→finish async spans,
 *    admission/first-token/eviction/prefix-hit/truncate instants), scheduler
 *    queue depth, and KV pool occupancy counters sampled per step.
 *
 * The recorder is DISABLED by default and every emission site guards on
 * one `enabled()` branch, so the disabled path costs nothing measurable
 * (the zero-cost-when-disabled invariant, docs/DESIGN.md §7). Tracing
 * never advances the virtual clock: enabling it may not change any
 * simulated timing, token, or counter — only observe them.
 *
 * Export is Chrome trace-event JSON (writeChromeTrace), loadable in
 * chrome://tracing and Perfetto: spans are "X" complete events, request
 * lifecycles "b"/"e" async pairs keyed by id, instants "i", counters
 * "C", with pid/tid mapped to the lanes above via "M" metadata records.
 * All timestamps are virtual-clock microseconds, Chrome's native unit.
 * Output is byte-deterministic for identical seeded runs (fixed float
 * formatting, insertion-ordered events) — scripts/check.sh diffs two
 * runs of the serving bench to pin this.
 */
#ifndef RELAX_SUPPORT_TRACE_H_
#define RELAX_SUPPORT_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace relax {

/** The fixed pid/tid lane map of the trace (see docs/ARCHITECTURE.md). */
namespace trace_lanes {
// pids (one per subsystem clock consumer). Devices claim the low pids —
// device i of a DeviceGroup stamps pid i (SimDevice::shareTrace), so the
// non-device subsystems sit above the largest plausible group.
constexpr int kDevice = 0;   //!< SimDevice i: kernels + memory (pid = i)
constexpr int kVm = 100;     //!< VirtualMachine: frames + graph regions
constexpr int kEngine = 101; //!< serve::Engine: steps + requests + KV pool
// tids within kDevice
constexpr int kKernels = 0;
constexpr int kMemory = 1;
// tids within kVm
constexpr int kFrames = 0;
// tids within kEngine
constexpr int kSteps = 0;
constexpr int kRequests = 1;
constexpr int kKvPool = 2;
constexpr int kSpeculation = 3; //!< propose/verify/accept instants
} // namespace trace_lanes

/** One typed key/value pair in an event's args dictionary. */
struct TraceArg
{
    enum class Kind { kInt, kDouble, kString };

    TraceArg(std::string k, int64_t value)
        : key(std::move(k)), kind(Kind::kInt), i(value) {}
    TraceArg(std::string k, double value)
        : key(std::move(k)), kind(Kind::kDouble), d(value) {}
    TraceArg(std::string k, std::string value)
        : key(std::move(k)), kind(Kind::kString), s(std::move(value)) {}

    std::string key;
    Kind kind;
    int64_t i = 0;
    double d = 0.0;
    std::string s;
};

/**
 * Low-overhead recorder of timestamped spans/instants/counters on the
 * virtual clock. Emission methods are no-ops while disabled; callers on
 * hot paths should still guard with `enabled()` to skip argument
 * marshalling entirely.
 */
class TraceRecorder
{
  public:
    /** One recorded trace event (Chrome trace-event phases). */
    struct Event
    {
        char ph = 'X'; //!< 'X' span, 'i' instant, 'b'/'e' async, 'C' counter
        int pid = 0;
        int tid = 0;
        double ts = 0.0;  //!< virtual-clock microseconds
        double dur = 0.0; //!< span duration ('X' only)
        int64_t id = -1;  //!< async pair key ('b'/'e' only)
        std::string name;
        std::string cat;
        std::vector<TraceArg> args;
    };

    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Drops every recorded event (enabled state is unchanged). */
    void clear() { events_.clear(); }

    /** Completed span [ts, ts + dur) on lane (pid, tid). */
    void span(int pid, int tid, std::string name, std::string cat,
              double ts, double dur, std::vector<TraceArg> args = {});

    /** Zero-duration instant at ts. */
    void instant(int pid, int tid, std::string name, std::string cat,
                 double ts, std::vector<TraceArg> args = {});

    /** Async span begin/end, paired by (cat, id) — request lifecycles:
     *  unlike 'X' spans these may overlap freely within one lane. */
    void asyncBegin(int pid, int tid, std::string name, std::string cat,
                    int64_t id, double ts, std::vector<TraceArg> args = {});
    void asyncEnd(int pid, int tid, std::string name, std::string cat,
                  int64_t id, double ts, std::vector<TraceArg> args = {});

    /** Counter track sample (each arg becomes one series). */
    void counter(int pid, int tid, std::string name, double ts,
                 std::vector<TraceArg> args);

    const std::vector<Event>& events() const { return events_; }

    /**
     * Structural check: within every (pid, tid) lane the 'X' spans must
     * nest — any two either disjoint or one containing the other (the
     * fuzz oracle asserts this for every seed). Returns false and fills
     * `error` on the first violation.
     */
    bool wellNested(std::string* error = nullptr) const;

    /**
     * Serializes the recorded events as Chrome trace-event JSON
     * (chrome://tracing / Perfetto "JSON" format): process/thread
     * metadata for the lane map first, then every event in insertion
     * order. Deterministic: fixed "%.3f" float formatting, no host
     * state.
     */
    void writeChromeTrace(std::ostream& os) const;

  private:
    bool enabled_ = false;
    std::vector<Event> events_;
};

} // namespace relax

#endif // RELAX_SUPPORT_TRACE_H_
