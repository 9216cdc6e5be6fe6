/**
 * @file
 * The benchmark's four workloads. Each runs one pass of its work from
 * seeded inputs and returns what it measured; run.py repeats passes
 * to fill the run time and checks that every pass agrees on the
 * simulated numbers.
 *
 *  - serve_mixed: timing-mode Llama3-8B on rtx4090, batch cap 8, open-loop
 *    Poisson arrivals at a nominal rate, then a bisection for the highest
 *    rate that meets the latency limits; prompts 16-512 tokens whose first
 *    token is unique, so prefix caching has nothing to match.
 *  - serve_shared_prefix: the same engine serving four 384-token system
 *    prompts with short random tails, under a KV budget below the working
 *    set (prefix hits, evictions, re-prefill).
 *  - data_tiny: data-mode LlamaConfig::tiny() on a host CPU spec, closed
 *    loop with four clients; every token stream is checked against a
 *    plain-C++ greedy reference.
 *  - compile_zoo: compiles Llama3-8B, Gemma1.1-7B, Qwen2-7B and a q4
 *    Llama3-8B for rtx4090, radeon7900xtx and appleM2Ultra, then prices
 *    batch-1 prefill and decode.
 */
#ifndef RELAX_PERFBENCH_WORKLOADS_H_
#define RELAX_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace relax {
namespace perfbench {

struct Workload
{
    std::string name;
    /** One pass of the workload's work. */
    PassOut (*run)(const RunContext& ctx);
    /** Hash of the inputs a seed generates (the seed-sensitivity check). */
    uint64_t (*inputsHash)(uint64_t seed);
};

const std::vector<Workload>& workloads();

} // namespace perfbench
} // namespace relax

#endif // RELAX_PERFBENCH_WORKLOADS_H_
