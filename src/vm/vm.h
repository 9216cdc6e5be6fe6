/**
 * @file
 * The Relax virtual machine: executes compiled modules on a simulated
 * device. Two execution modes share one code path:
 *  - data mode: kernels, generated or library, run their tensor program
 *    on the reference interpreter with real tensors (tests, examples);
 *  - timing mode: tensors are metadata-only and only shapes, memory
 *    accounting and the device's virtual clock advance — how the
 *    benchmark harness executes paper-scale models.
 * Each invocation's symbolic shape values live in its slot frame (one
 * int64 per symbolic variable, exec.h), which the function's shape
 * program reads; inside a bucketed graph region a second, padded frame
 * holds the bucket ceilings that kernels are priced at.
 */
#ifndef RELAX_VM_VM_H_
#define RELAX_VM_VM_H_

#include <functional>
#include <memory>
#include <numeric>
#include <variant>

#include "device/device.h"
#include "tir/ndarray.h"
#include "vm/exec.h"

namespace relax {

namespace device {
class DeviceGroup;
} // namespace device

namespace vm {

/** Device-side storage chunk produced by alloc_storage. */
struct Storage
{
    int64_t bytes = 0;
    bool persistent = false; //!< statically pre-allocated (kept across calls)
};
using StoragePtr = std::shared_ptr<Storage>;

struct TupleValue;
using TupleValuePtr = std::shared_ptr<TupleValue>;

/** A VM register value. */
using Value = std::variant<std::monostate, NDArray, StoragePtr,
                           TupleValuePtr, int64_t>;

struct TupleValue
{
    std::vector<Value> fields;
};

/** Per-invocation statistics. */
struct RunStats
{
    double latencyUs = 0.0;
    int64_t kernelLaunches = 0;
    int64_t bytesAllocated = 0; //!< new device allocations this call
    int64_t graphBegins = 0;    //!< graph regions entered this call
    int64_t graphCaptures = 0;  //!< regions that missed and captured
    int64_t graphReplays = 0;   //!< regions that hit a captured graph
};

/** Cumulative execution-graph counters across every invoke(). */
struct GraphStats
{
    int64_t begins = 0;
    int64_t captures = 0;
    int64_t replays = 0;

    /** Fraction of graph regions that replayed instead of capturing. */
    double
    hitRate() const
    {
        return begins > 0 ? (double)replays / (double)begins : 0.0;
    }
};

/**
 * One argument of a library kernel as its cost model sees it: the shape
 * it is priced at (inside a bucketed graph region, its bucket-ceiling
 * shape), its element type and the live tensor's host data, if any.
 * Elements past the live extent read as 0, so a phantom row of a padded
 * integer metadata tensor prices as an empty sequence.
 */
class PricedArg
{
  public:
    /** `live` priced at `shape` (of rank `rank`), or at its own shape
     *  when `shape` is null. `shape` must outlive the view. */
    explicit PricedArg(const NDArray& live, const int64_t* shape = nullptr,
                       size_t rank = 0)
        : live_(&live), shape_(shape ? shape : live.shape().data()),
          rank_(shape ? rank : live.shape().size())
    {
    }

    size_t rank() const { return rank_; }
    int64_t dim(size_t d) const { return shape_[d]; }
    int64_t
    numel() const
    {
        return std::accumulate(shape_, shape_ + rank_, int64_t(1),
                               std::multiplies<int64_t>());
    }
    int64_t sizeBytes() const { return numel() * dtype().bytes(); }
    DataType dtype() const { return live_->dtype(); }
    bool hasData() const { return live_->hasData(); }
    /** Element `flat` (row-major at the priced shape); 0 past the live
     *  extent. */
    double at(int64_t flat) const;

  private:
    const NDArray* live_;
    const int64_t* shape_;
    size_t rank_;
};

/**
 * A simulated vendor-library kernel or runtime builtin: a cost model plus
 * its data-mode semantics, a reference program (DPS kernels) or a native
 * compute (builtins, whose output size depends on the data).
 */
struct LibraryKernel
{
    std::function<device::KernelCost(const std::vector<PricedArg>& args,
                                     const ir::Attrs& attrs,
                                     const device::DeviceSpec& spec)>
        cost;
    /** The reference program of a call site, from its argument shapes
     *  (outputs last), attrs and element type; the VM runs it like a
     *  generated kernel. */
    std::function<tir::PrimFunc(
        const std::vector<std::vector<PrimExpr>>& shapes,
        const ir::Attrs& attrs, DataType dtype)>
        program;
    /** Builtins: computes over real data and appends the result to args. */
    std::function<void(std::vector<NDArray>& args, const ir::Attrs& attrs)>
        compute;
};

/** The library kernel or builtin linked under `name`; null when none is. */
const LibraryKernel* findLibrary(const std::string& name);

/**
 * Cumulative count (process-wide) of in-place kernel invocations verified
 * by the RELAX_ALIAS_CHECK differential mode: each one ran twice — once
 * aliased, once copy-in/copy-out — and bit-compared clean. Zero when the
 * mode is off or no in-place sites executed in data mode.
 */
int64_t aliasChecksPerformed();

/** The virtual machine. */
class VirtualMachine
{
  public:
    VirtualMachine(ExecutablePtr exec,
                   std::shared_ptr<device::SimDevice> dev, bool data_mode)
        : exec_(std::move(exec)), device_(std::move(dev)),
          dataMode_(data_mode) {}

    /**
     * Invokes a compiled function: the one-shard case of
     * invokeLockstep(). A `ccl.*` collective site has no group to
     * rendezvous with here, so it throws RuntimeError naming the
     * collective.
     */
    Value invoke(const std::string& name, const std::vector<Value>& args);

    /**
     * Runs one compiled function across N shard VMs in instruction
     * lockstep — the tensor-parallel execution mode. All shards must
     * share one executable (ShardPass emits a single per-shard program);
     * shard s runs on its own device with its own argument list, and
     * every `ccl.*` library call becomes a rendezvous: the group prices
     * one ring collective (barrier + transfer on every member) and, in
     * data mode, the driver materializes the collective's semantics
     * across the shards (rank-order left-fold sum for all_reduce,
     * last-dim concat for all_gather) so results are deterministic.
     * Collectives do not count as kernel launches and are
     * graph-capture-insensitive. Returns shard s's result in slot s;
     * per-shard RunStats are updated exactly as for invoke().
     */
    static std::vector<Value>
    invokeLockstep(std::vector<VirtualMachine>& shards,
                   device::DeviceGroup& group, const std::string& name,
                   const std::vector<std::vector<Value>>& args);

    /**
     * Allocates a persistent device storage chunk outside any compiled
     * function — how the serving layer owns KV-cache pages: accounted
     * against the device's VRAM like static plan storage, kept across
     * invocations until released.
     */
    StoragePtr allocPersistentStorage(int64_t bytes);

    /** Releases a chunk from allocPersistentStorage (idempotent). */
    void releasePersistentStorage(const StoragePtr& storage);

    /** Statistics of the most recent invoke(). */
    const RunStats& lastRunStats() const { return lastStats_; }

    /** Cumulative graph capture/replay counters across all invokes. */
    const GraphStats& graphStats() const { return graphStats_; }

    device::SimDevice& dev() { return *device_; }
    /** The shared device handle — lets a second VM (a serving engine's
     *  draft model) run on the same simulated clock and VRAM pool. */
    std::shared_ptr<device::SimDevice> devPtr() const { return device_; }
    bool dataMode() const { return dataMode_; }

    /**
     * Namespaces this VM's captured-graph keys on the device. Two VMs
     * running different executables on one shared device (a serving
     * engine's target and draft models) would otherwise collide: graph
     * ids are per-executable counters and bucketed shape signatures look
     * alike across models, so a draft region could "replay" a graph the
     * target captured. Defaults to the empty keyspace, which preserves
     * the single-VM key format.
     */
    void setGraphKeyspace(std::string keyspace)
    {
        graphKeyspace_ = std::move(keyspace);
    }
    const std::string& graphKeyspace() const { return graphKeyspace_; }

  private:
    /** The instruction loop behind invoke() (n = 1, no group) and
     *  invokeLockstep(). */
    static std::vector<Value> run(VirtualMachine* shards,
                                  const std::vector<Value>* const* args,
                                  size_t n, device::DeviceGroup* group,
                                  const std::string& name);

    ExecutablePtr exec_;
    std::shared_ptr<device::SimDevice> device_;
    bool dataMode_;
    std::string graphKeyspace_;
    RunStats lastStats_;
    GraphStats graphStats_;
    /** Statically planned storages, pre-allocated once and kept. */
    std::map<std::pair<std::string, size_t>, StoragePtr> staticStorages_;
    /** Runtime memory pool (unplanned path): exact-size free lists. */
    std::map<int64_t, int> freePool_;
};

} // namespace vm
} // namespace relax

#endif // RELAX_VM_VM_H_
