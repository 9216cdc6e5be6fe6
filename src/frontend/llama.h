/**
 * @file
 * Transformer LLM frontend: builds Relax IR for Llama-family decoder-only
 * models (the paper's nn.Module-like model construction, §5.1). Emits a
 * `prefill` function (causal attention over n tokens, produces the KV
 * cache) and a `decode` function (single-token step over a symbolic
 * cache length m and batch b) — so dynamism covers both sequence length
 * and batch size, compiled once for all values.
 *
 * The 4-bit quantized variant replaces each weight matmul with the Fig. 9
 * custom decode_q4 tensor program feeding the matmul, exercising
 * cross-level fusion on a real workload.
 */
#ifndef RELAX_FRONTEND_LLAMA_H_
#define RELAX_FRONTEND_LLAMA_H_

#include <string>

#include "ir/module.h"

namespace relax {
namespace frontend {

/** Weight quantization scheme. */
enum class Quant { kF16, kQ4, kQ3 };

/** Decoder-only transformer configuration. */
struct LlamaConfig
{
    std::string name;
    int64_t hiddenSize = 4096;
    int64_t numLayers = 32;
    int64_t numHeads = 32;
    int64_t headDim = 128;
    int64_t ffnSize = 14336;
    int64_t vocabSize = 128256;
    int64_t maxContext = 4096;
    Quant quant = Quant::kF16;
    /** "silu" (Llama) or "gelu" (Gemma). */
    std::string activation = "silu";
    /**
     * When nonzero, the batch dimension is compiled as this constant
     * instead of a symbolic var (used by benches that compile per batch,
     * letting partial library lowering see the GEMM row count; sequence
     * and context lengths stay symbolic).
     */
    int64_t fixedBatch = 0;

    /** Total parameter bytes under the quantization scheme. */
    int64_t weightBytes() const;
    /** KV cache bytes for one sequence position across all layers. */
    int64_t kvBytesPerToken() const;

    static LlamaConfig llama3_8b();
    static LlamaConfig gemma1_1_7b();
    static LlamaConfig qwen2_7b();
    static LlamaConfig llama2_7b();
    static LlamaConfig phi3_mini();
    static LlamaConfig redpajama_3b();
    /** Scaled-down variant for data-mode correctness tests. */
    static LlamaConfig tiny();

    LlamaConfig withQuant(Quant q) const;
};

/**
 * Builds the model module with `prefill`, `decode` and `decode_ragged`
 * functions.
 *
 *   prefill(ids [b, n], weights...) ->
 *       (logits [b, n, V], k_0 [b, h, n, d], v_0, ..., k_L-1, v_L-1)
 *   decode(ids [b, 1], k_0 [b, h, m, d], v_0, ..., weights...) ->
 *       (logits [b, 1, V], k_0' [b, h, m+1, d], v_0', ...)
 *   decode_ragged(ids [1, total] i64, seq_lens [b] i64,
 *                 cu_fresh [b+1] i64, block_table [b, w] i64,
 *                 k_pool_0 [p, h, c, d], v_pool_0, ..., weights...) ->
 *       (logits [1, total, V], k_pool_0', v_pool_0', ...)
 *
 * `prefill`/`decode` are the dense per-call cache layout the figure
 * benches compile. `decode_ragged` is the serving entry point: every
 * cache access gathers/scatters through the persistent KV page pools
 * (p physical pages of c positions per layer per k/v) via the block
 * table. The fresh tokens of all b rows are packed back to back in
 * `ids`: row r owns positions [cu_fresh[r], cu_fresh[r+1]) and
 * cu_fresh[b] == total. A row with one fresh token is a steady-state
 * decode step; a longer row prefills a prompt chunk straight into pool
 * pages starting at its seq_lens[r] offset. The returned pools alias
 * the inputs (in-place append) — nothing is allocated or copied per
 * call.
 *
 * `weight_names` receives the parameter order after the data inputs, so
 * callers can construct matching argument lists.
 */
ir::IRModulePtr buildLlama(const LlamaConfig& config,
                           std::vector<std::string>* weight_names = nullptr);

/** Creates weight tensors for the config (data or metadata-only). */
std::vector<NDArray> makeLlamaWeights(const LlamaConfig& config,
                                      bool with_data, unsigned seed = 7);

/**
 * Slices full weight tensors into the shard-local set the ShardPass'd
 * `decode_ragged` function of `shard` expects (Megatron layout): wq / wk /
 * wv / w_gate / w_up / lm_head are split along the output dim, wo /
 * w_down along the input dim, norms and embeddings replicated (shared by
 * handle — weights are read-only). Metadata-only weights slice shape-only.
 * One shard holds the full weights as given (any config). Otherwise
 * throws when a sharded dim is not divisible by `num_shards` or the
 * config is quantized.
 */
std::vector<NDArray> shardLlamaWeights(const LlamaConfig& config,
                                       const std::vector<NDArray>& full,
                                       int shard, int num_shards);

} // namespace frontend
} // namespace relax

#endif // RELAX_FRONTEND_LLAMA_H_
