/**
 * @file
 * Plain-C++ greedy reference for the Llama decoder the frontend builds:
 * the same math (token embedding, RMSNorm, q/k/v projections, causal
 * softmax attention, SiLU-gated FFN, residuals, final norm, LM head) written
 * directly over the makeLlamaWeights tensors, without the compiler, the VM
 * or the TIR interpreter. The data-mode workload checks that the serving
 * engine emits exactly these token streams.
 *
 * Positions are processed one at a time with a per-layer K/V history, so a
 * request costs O(length^2) small dot products; only tiny configs use it.
 */
#ifndef RELAX_PERFBENCH_REFERENCE_H_
#define RELAX_PERFBENCH_REFERENCE_H_

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "frontend/llama.h"
#include "support/error.h"

namespace relax {
namespace perfbench {

class ReferenceLlama
{
  public:
    ReferenceLlama(const frontend::LlamaConfig& config,
                   const std::vector<NDArray>& weights)
        : config_(config)
    {
        RELAX_ICHECK(config.quant == frontend::Quant::kF16)
            << "reference covers unquantized models only";
        std::vector<std::string> names;
        frontend::buildLlama(config, &names);
        RELAX_ICHECK(names.size() == weights.size())
            << "weight list does not match buildLlama's parameter order";
        for (size_t i = 0; i < names.size(); ++i) {
            weights_[names[i]] = &weights[i].data();
        }
    }

    /** Greedy continuation of `prompt` by `max_new` tokens. */
    std::vector<int64_t>
    generate(const std::vector<int64_t>& prompt, int64_t max_new) const
    {
        History history(config_.numLayers);
        std::vector<double> logits;
        for (int64_t token : prompt) logits = forward(token, history);
        std::vector<int64_t> out;
        while ((int64_t)out.size() < max_new) {
            int64_t best = 0;
            for (int64_t v = 1; v < config_.vocabSize; ++v) {
                if (logits[v] > logits[best]) best = v;
            }
            out.push_back(best);
            if ((int64_t)out.size() < max_new) {
                logits = forward(best, history);
            }
        }
        return out;
    }

  private:
    using Vec = std::vector<double>;
    /** Per layer: the K and V rows of every position seen so far. */
    struct LayerKV
    {
        std::vector<Vec> k, v;
    };
    using History = std::vector<LayerKV>;

    const std::vector<double>&
    w(const std::string& name) const
    {
        auto it = weights_.find(name);
        RELAX_ICHECK(it != weights_.end()) << "missing weight " << name;
        return *it->second;
    }

    /** y = x @ W^T for a row-major [out, in] weight. */
    static Vec
    matvec(const Vec& x, const std::vector<double>& weight, int64_t out)
    {
        int64_t in = (int64_t)x.size();
        Vec y(out, 0.0);
        for (int64_t o = 0; o < out; ++o) {
            double acc = 0.0;
            for (int64_t k = 0; k < in; ++k) acc += x[k] * weight[o * in + k];
            y[o] = acc;
        }
        return y;
    }

    static Vec
    rmsNorm(const Vec& x, const std::vector<double>& weight)
    {
        double sq = 0.0;
        for (double value : x) sq += value * value;
        double inv = 1.0 / std::sqrt(sq / (double)x.size() + 1e-5);
        Vec y(x.size());
        for (size_t i = 0; i < x.size(); ++i) y[i] = x[i] * inv * weight[i];
        return y;
    }

    /** Runs one position; returns its logits. */
    Vec
    forward(int64_t token, History& history) const
    {
        const int64_t h = config_.hiddenSize, heads = config_.numHeads,
                      hd = config_.headDim, proj = heads * hd;
        const auto& emb = w("tok_embeddings");
        Vec x(emb.begin() + token * h, emb.begin() + (token + 1) * h);
        double scale = 1.0 / std::sqrt((double)hd);
        for (int64_t layer = 0; layer < config_.numLayers; ++layer) {
            std::string p = "l" + std::to_string(layer) + "_";
            Vec normed = rmsNorm(x, w(p + "attn_norm"));
            Vec q = matvec(normed, w(p + "wq"), proj);
            LayerKV& kv = history[layer];
            kv.k.push_back(matvec(normed, w(p + "wk"), proj));
            kv.v.push_back(matvec(normed, w(p + "wv"), proj));
            size_t len = kv.k.size();
            Vec attn(proj, 0.0);
            for (int64_t head = 0; head < heads; ++head) {
                Vec scores(len);
                double top = -INFINITY;
                for (size_t j = 0; j < len; ++j) {
                    double dot = 0.0;
                    for (int64_t d = 0; d < hd; ++d) {
                        dot += q[head * hd + d] * kv.k[j][head * hd + d];
                    }
                    scores[j] = dot * scale;
                    top = std::max(top, scores[j]);
                }
                double sum = 0.0;
                for (double& s : scores) {
                    s = std::exp(s - top);
                    sum += s;
                }
                for (int64_t d = 0; d < hd; ++d) {
                    double acc = 0.0;
                    for (size_t j = 0; j < len; ++j) {
                        acc += scores[j] / sum * kv.v[j][head * hd + d];
                    }
                    attn[head * hd + d] = acc;
                }
            }
            Vec o = matvec(attn, w(p + "wo"), h);
            for (int64_t i = 0; i < h; ++i) x[i] += o[i];
            Vec normed2 = rmsNorm(x, w(p + "ffn_norm"));
            Vec gate = matvec(normed2, w(p + "w_gate"), config_.ffnSize);
            Vec up = matvec(normed2, w(p + "w_up"), config_.ffnSize);
            for (int64_t i = 0; i < config_.ffnSize; ++i) {
                double act = config_.activation == "gelu"
                                 ? 0.5 * gate[i] *
                                       (1.0 + std::erf(gate[i] / M_SQRT2))
                                 : gate[i] / (1.0 + std::exp(-gate[i]));
                gate[i] = act * up[i];
            }
            Vec down = matvec(gate, w(p + "w_down"), h);
            for (int64_t i = 0; i < h; ++i) x[i] += down[i];
        }
        return matvec(rmsNorm(x, w("final_norm")), w("lm_head"),
                      config_.vocabSize);
    }

    frontend::LlamaConfig config_;
    std::map<std::string, const std::vector<double>*> weights_;
};

} // namespace perfbench
} // namespace relax

#endif // RELAX_PERFBENCH_REFERENCE_H_
