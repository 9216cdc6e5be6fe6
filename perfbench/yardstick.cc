/**
 * @file
 * The host-speed yardstick: a fixed chunk of small allocations, ordered-map
 * and hash-map lookups, timed in a process of its own. It links nothing of
 * the program under test, so its time tracks the machine (other load, clock
 * speed), not the program's allocator or heap. A pass of relax_perfbench
 * runs it between pieces of measured work (see Yardstick in harness.h).
 *
 *   relax_perfbench_yardstick
 *
 * Output: one JSON line {"chunk_us": <median time of the timed chunks>}.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

/** Fixed work: small allocations, ordered-map and hash-map traffic. */
uint64_t
churnChunk()
{
    uint32_t x = 12345;
    uint64_t sink = 0;
    std::map<uint32_t, std::shared_ptr<std::vector<double>>> tree;
    std::unordered_map<std::string, int> table;
    for (int i = 0; i < 5000; ++i) {
        x = x * 1664525u + 1013904223u;
        tree[x % 12500] = std::make_shared<std::vector<double>>(1 + (x >> 28));
    }
    for (int i = 0; i < 5000; ++i) {
        x = x * 1664525u + 1013904223u;
        auto it = tree.lower_bound(x % 12500);
        if (it != tree.end()) sink += it->second->size();
    }
    for (int i = 0; i < 1250; ++i) {
        x = x * 1664525u + 1013904223u;
        table["k" + std::to_string(x % 750)] += 1;
    }
    return sink + table.size();
}

} // namespace

int
main()
{
    using clock = std::chrono::steady_clock;
    constexpr int kTimedChunks = 3;
    uint64_t sink = churnChunk(); // warm-up: first-touch page faults
    std::vector<double> chunk_us;
    for (int i = 0; i < kTimedChunks; ++i) {
        clock::time_point t0 = clock::now();
        sink += churnChunk();
        chunk_us.push_back(
            std::chrono::duration<double, std::micro>(clock::now() - t0)
                .count());
    }
    std::sort(chunk_us.begin(), chunk_us.end());
    // Printing the sink keeps the chunks' work observable.
    std::printf("{\"chunk_us\": %.17g, \"sink\": %llu}\n",
                chunk_us[kTimedChunks / 2], (unsigned long long)sink);
    return 0;
}
