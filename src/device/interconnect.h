/**
 * @file
 * Interconnect model for multi-device (tensor-parallel) simulation: an
 * `InterconnectSpec` prices collectives from link bandwidth and per-hop
 * latency using the standard ring-algorithm cost model, and a
 * `DeviceGroup` owns N `SimDevice`s that advance together on one virtual
 * clock — a collective is a synchronization point (every clock jumps to
 * the slowest participant) plus the priced transfer time on every
 * member.
 *
 * Ring all-reduce moves 2·(N−1)/N of the payload over the slowest link
 * (reduce-scatter then all-gather, N−1 steps each), so:
 *
 *   allReduceUs(N, bytes) = 2·(N−1)/N · bytes / bw + hops·latency,
 *   hops = 2·(N−1)
 *
 * and ring all-gather is the second half alone. See docs/DESIGN.md §10
 * (the sharding contract) for how the serving stack places collectives.
 */
#ifndef RELAX_DEVICE_INTERCONNECT_H_
#define RELAX_DEVICE_INTERCONNECT_H_

#include <memory>
#include <string>
#include <vector>

#include "device/device.h"

namespace relax {
namespace device {

/** Static description of the link joining the devices of a group. */
struct InterconnectSpec
{
    std::string name = "nvlink";
    /** Per-direction link bandwidth, GB/s (NVLink 4.0 lane ~ 300). */
    double linkBandwidthGBs = 300.0;
    /** Per-hop latency, microseconds. */
    double linkLatencyUs = 1.0;

    /** Ring all-reduce latency for `bytes` of payload across `n` peers. */
    double
    allReduceUs(int n, double bytes) const
    {
        if (n <= 1) return 0.0;
        double transfer = 2.0 * (double)(n - 1) / (double)n * bytes /
                          (linkBandwidthGBs * 1e3);
        double hops = 2.0 * (double)(n - 1);
        return transfer + hops * linkLatencyUs;
    }

    /**
     * Ring all-gather latency: `bytes` is the FULL gathered payload
     * (each peer contributes bytes/n), moved over n−1 hops.
     */
    double
    allGatherUs(int n, double bytes) const
    {
        if (n <= 1) return 0.0;
        double transfer = (double)(n - 1) / (double)n * bytes /
                          (linkBandwidthGBs * 1e3);
        return transfer + (double)(n - 1) * linkLatencyUs;
    }
};

/** NVLink-class interconnect (intra-node GPU pod). */
InterconnectSpec nvlink();
/** PCIe 4.0 x16-class interconnect (commodity multi-GPU box). */
InterconnectSpec pcieGen4();
/** Looks up an interconnect spec by name; throws on unknown names. */
InterconnectSpec interconnectByName(const std::string& name);

/**
 * N simulated devices of one spec joined by an interconnect, advancing
 * on one logical clock. Device i stamps trace events on pid i: every
 * member shares device 0's TraceRecorder (SimDevice::shareTrace), so a
 * single export carries all lanes.
 *
 * Collectives are the only cross-device edges: `allReduce`/`allGather`
 * first synchronize every clock to the slowest member (a collective is a
 * barrier), then advance all clocks by the priced transfer time. With
 * identical per-shard work the sync is a no-op and the collective time
 * is pure interconnect cost — the clock-merge rule of DESIGN.md §10:
 * step time = max(shard finish) + collective time.
 */
class DeviceGroup
{
  public:
    DeviceGroup(const DeviceSpec& spec, int count,
                InterconnectSpec link = nvlink())
        : link_(link)
    {
        RELAX_ICHECK(count >= 1) << "device group needs >= 1 device";
        devices_.reserve((size_t)count);
        for (int i = 0; i < count; ++i) {
            devices_.push_back(std::make_shared<SimDevice>(spec));
            if (i > 0) devices_[i]->shareTrace(devices_[0]->trace(), i);
        }
    }

    /**
     * The one-device group over an existing device: how a single-device
     * model joins the group abstraction. It has no peers, so it prices
     * no collective and leaves the device's trace lane untouched.
     */
    explicit DeviceGroup(std::shared_ptr<SimDevice> device)
        : devices_{std::move(device)}, link_(nvlink())
    {
        RELAX_ICHECK(devices_[0]) << "device group over a null device";
    }

    int size() const { return (int)devices_.size(); }
    const InterconnectSpec& link() const { return link_; }

    SimDevice& device(int i) { return *devices_.at((size_t)i); }
    const SimDevice& device(int i) const { return *devices_.at((size_t)i); }
    /** Shared ownership handle (VirtualMachine holds its device this way). */
    const std::shared_ptr<SimDevice>&
    devicePtr(int i) const
    {
        return devices_.at((size_t)i);
    }

    /** The group clock: the slowest member's virtual time. */
    double
    clockUs() const
    {
        double t = 0.0;
        for (const auto& dev : devices_) t = std::max(t, dev->clockUs());
        return t;
    }

    /**
     * Barrier: jumps every member's clock to the slowest one. Returns
     * the merged clock value.
     */
    double
    syncClocks()
    {
        double t = clockUs();
        for (auto& dev : devices_) dev->hostOverhead(t - dev->clockUs());
        return t;
    }

    /** Priced ring all-reduce over `bytes`; returns its latency. */
    double
    allReduce(double bytes)
    {
        return collective("ccl.all_reduce",
                          link_.allReduceUs(size(), bytes), bytes);
    }

    /** Priced ring all-gather of a full `bytes` payload. */
    double
    allGather(double bytes)
    {
        return collective("ccl.all_gather",
                          link_.allGatherUs(size(), bytes), bytes);
    }

    // --- statistics --------------------------------------------------------

    int64_t collectiveCount() const { return collectiveCount_; }
    double collectiveUs() const { return collectiveUs_; }
    double collectiveBytes() const { return collectiveBytes_; }

  private:
    double
    collective(const char* name, double latency, double bytes)
    {
        double start = syncClocks();
        for (size_t i = 0; i < devices_.size(); ++i) {
            SimDevice& dev = *devices_[i];
            dev.hostOverhead(latency);
            if (dev.trace().enabled()) {
                dev.trace().span((int)i, trace_lanes::kKernels, name,
                                 "collective", start, latency,
                                 {{"bytes", bytes},
                                  {"peers", (int64_t)devices_.size()}});
            }
        }
        ++collectiveCount_;
        collectiveUs_ += latency;
        collectiveBytes_ += bytes;
        return latency;
    }

    std::vector<std::shared_ptr<SimDevice>> devices_;
    InterconnectSpec link_;
    int64_t collectiveCount_ = 0;
    double collectiveUs_ = 0.0;
    double collectiveBytes_ = 0.0;
};

} // namespace device
} // namespace relax

#endif // RELAX_DEVICE_INTERCONNECT_H_
