/**
 * @file
 * Simulated vendor libraries (the call_dps_library targets of §4.6) and
 * runtime builtins, in the read-only table buildExecutable links against.
 * Each kernel provides a cost model (used by the simulated device clock).
 * A DPS library kernel's data-mode semantics are the tensor program the
 * compiler generates for its operator, built once per call site and run
 * by the VM like a generated kernel, so library dispatch is bit-identical
 * to the compiler path.
 *
 * Library cost characteristics mirror the real systems:
 *  - cublas/rocblas/mps GEMMs hit a higher fraction of roofline peak than
 *    compiler-generated kernels (libGemmEfficiency);
 *  - flashattn.attention never materializes the score matrix, so its
 *    memory traffic is only q+k+v+out (the FlashAttention property);
 *  - cutlass fused norms behave like tuned elementwise kernels.
 */
#include <algorithm>
#include <cmath>
#include <map>

#include "op/tir_kernels.h"
#include "vm/vm.h"

namespace relax {
namespace vm {

namespace {

using Shapes = std::vector<std::vector<PrimExpr>>;

double
totalBytes(const std::vector<PricedArg>& args)
{
    double bytes = 0;
    for (const auto& a : args) bytes += (double)a.sizeBytes();
    return bytes;
}

double
attrDouble(const ir::Attrs& attrs, const std::string& key, double fallback)
{
    auto it = attrs.find(key);
    return it == attrs.end() ? fallback : std::get<double>(it->second);
}

int64_t
attrInt(const ir::Attrs& attrs, const std::string& key, int64_t fallback)
{
    auto it = attrs.find(key);
    return it == attrs.end() ? fallback : std::get<int64_t>(it->second);
}

LibraryKernel
gemm()
{
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const PricedArg& a = args[0];
        const PricedArg& out = args.back();
        int64_t k = a.dim(a.rank() - 1);
        device::KernelCost cost;
        cost.flops = 2.0 * (double)out.numel() * (double)k;
        cost.bytes = totalBytes(args);
        cost.efficiency = spec.libGemmEfficiency;
        return cost;
    };
    kernel.program = [](const Shapes& shapes, const ir::Attrs& attrs,
                        DataType dtype) {
        return op::makeMatmulFunc("lib_matmul", shapes[0], shapes[1],
                                  attrInt(attrs, "transpose_b", 0) != 0,
                                  dtype);
    };
    return kernel;
}

LibraryKernel
attention()
{
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const PricedArg& q = args[0]; // [b, h, n, d]
        const PricedArg& k = args[1]; // [b, h, m, d]
        device::KernelCost cost;
        cost.flops = 4.0 * (double)q.dim(0) * q.dim(1) * q.dim(2) *
                     k.dim(2) * q.dim(3);
        // IO-aware attention: only q, k, v and out touch device memory.
        cost.bytes = totalBytes(args);
        cost.efficiency = spec.libAttentionEfficiency;
        return cost;
    };
    kernel.program = [](const Shapes& shapes, const ir::Attrs& attrs,
                        DataType dtype) {
        return op::makeAttentionFunc(
            "lib_attention", shapes[0], shapes[1], shapes[2],
            attrDouble(attrs, "scale", 1.0),
            attrInt(attrs, "causal", 0) != 0, dtype);
    };
    return kernel;
}

LibraryKernel
raggedAttention()
{
    // Varlen / paged-KV attention over the persistent page pool
    // (FlashAttention's varlen paged-KV entry point): one launch covers a
    // packed batch q [1, h, n, d] of prefill chunks and single-token
    // decodes with unequal fresh lengths, delimited by the cumulative
    // offsets cu [b+1], gathering keys/values from pool pages
    // [p, h, c, d] through the [b, w] block table. Work is
    // data-dependent — each row prices fresh_i = cu[i+1] - cu[i] queries
    // against its own true context length, both read from host-side
    // integer tensors that carry data even in timing mode — so the cost
    // sums per-row fresh costs, never the padded packed axis or the pool
    // size. Shape padding from a bucketed capture region is benign: the
    // zero-filled tail of cu clamps to fresh 0 and prices nothing.
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const PricedArg& q = args[0];    // [1, h, n, d] packed
        const PricedArg& pool = args[1]; // [p, h, c, d] K pool
        const PricedArg& lens = args[3]; // [b] true context lengths
        const PricedArg& cu = args[4];   // [b+1] cumulative fresh
        int64_t h = q.dim(1), n = q.dim(2), d = q.dim(3);
        int64_t dv = args[2].dim(3);
        // Keys range over the mapped table width, not the pool size.
        int64_t m = args[5].dim(1) * pool.dim(2);
        double query_kv = 0.0;  // sum over rows of fresh_i * kv_i
        double kv_positions = 0.0;
        if (lens.hasData() && cu.hasData()) {
            int64_t rows =
                std::min<int64_t>(lens.numel(), cu.numel() - 1);
            for (int64_t i = 0; i < rows; ++i) {
                // Padded tails are zero-filled, so clamp the differences;
                // phantom rows read fresh 0 and price nothing.
                int64_t fresh = std::max<int64_t>(
                    (int64_t)cu.at(i + 1) - (int64_t)cu.at(i), 0);
                int64_t kv = std::min<int64_t>(
                    (int64_t)lens.at(i) + fresh, m);
                query_kv += (double)fresh * (double)kv;
                if (fresh > 0) kv_positions += (double)kv;
            }
        } else {
            // No host data: every packed query prices the padded worst
            // case of the mapped table width.
            query_kv = (double)n * (double)m;
            kv_positions = (double)lens.numel() * (double)m;
        }
        device::KernelCost cost;
        cost.flops = 2.0 * (double)h * (double)(d + dv) * query_kv;
        // IO-aware: q, out, lens, cu and block table, plus only the
        // gathered live K/V page bytes — the FlashAttention property
        // applied per row; the rest of the pool is never touched.
        cost.bytes = (double)args[0].sizeBytes() +
                     (double)args.back().sizeBytes() +
                     (double)args[3].sizeBytes() +
                     (double)args[4].sizeBytes() +
                     (double)args[5].sizeBytes() +
                     kv_positions * (double)h * (double)(d + dv) *
                         (double)args[1].dtype().bytes();
        cost.efficiency = spec.libAttentionEfficiency;
        return cost;
    };
    kernel.program = [](const Shapes& shapes, const ir::Attrs& attrs,
                        DataType dtype) {
        return op::makeRaggedAttentionFunc(
            "lib_attention_ragged", shapes[0], shapes[1], shapes[2],
            shapes[3], shapes[4], shapes[5],
            attrDouble(attrs, "scale", 1.0), dtype);
    };
    return kernel;
}

/** A cutlass fused norm over the last axis; `make` builds its program. */
LibraryKernel
norm(tir::PrimFunc (*make)(const std::string&, const std::vector<PrimExpr>&,
                           double, DataType),
     const char* name)
{
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        device::KernelCost cost;
        cost.flops = 4.0 * (double)args[0].numel();
        cost.bytes = totalBytes(args);
        cost.efficiency = 0.9;
        return cost;
    };
    kernel.program = [make, name](const Shapes& shapes,
                                  const ir::Attrs& attrs, DataType dtype) {
        return make(name, shapes[0], attrDouble(attrs, "eps", 1e-5), dtype);
    };
    return kernel;
}

LibraryKernel
kvAppend()
{
    // Paged KV-cache append: the runtime appends the new position in
    // place, so only the new token's K/V bytes move (the behavior of the
    // production paged cache the paper's system uses). Data mode realizes
    // the append as a concat so results stay exact.
    LibraryKernel append;
    append.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const PricedArg& fresh = args[1]; // [b, h, 1, d]
        device::KernelCost cost;
        cost.bytes = 2.0 * (double)fresh.sizeBytes();
        cost.flops = 0.0;
        cost.efficiency = spec.genElemwiseEfficiency;
        return cost;
    };
    append.program = [](const Shapes& shapes, const ir::Attrs&,
                        DataType dtype) {
        return op::makeConcatFunc("lib_kv_append", {shapes[0], shapes[1]},
                                  /*axis=*/2, dtype);
    };
    return append;
}

LibraryKernel
kvAppendRagged()
{
    // Page-pool packed append (in-place, `inplace_arg = 0`): scatters the
    // packed fresh tokens into the persistent pool at each row's own
    // length offset, addressed through the block table. The DPS output
    // aliases the pool argument, so the call allocates nothing and copies
    // nothing — only the true fresh K/V bytes (summed from the per-row
    // cu spans, plus the integer metadata) move, regardless of the pool
    // size or the padded packed axis. Args: pool, fresh, lens, cu,
    // table, out (== pool).
    LibraryKernel ragged;
    ragged.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const PricedArg& fresh = args[1]; // [1, h, n, d] packed
        const PricedArg& cu = args[3];    // [b+1] cumulative fresh
        double tokens = (double)fresh.dim(2); // padded worst case
        if (cu.hasData()) {
            // Sum of per-row fresh counts; the zero-filled padded tail
            // clamps to zero.
            tokens = 0.0;
            for (int64_t i = 0; i + 1 < cu.numel(); ++i) {
                tokens += (double)std::max<int64_t>(
                    (int64_t)cu.at(i + 1) - (int64_t)cu.at(i), 0);
            }
        }
        double token_bytes = (double)fresh.dim(1) * (double)fresh.dim(3) *
                             (double)fresh.dtype().bytes();
        device::KernelCost cost;
        cost.bytes = 2.0 * tokens * token_bytes +
                     (double)args[2].sizeBytes() +
                     (double)args[3].sizeBytes() +
                     (double)args[4].sizeBytes();
        cost.flops = 0.0;
        cost.efficiency = spec.genElemwiseEfficiency;
        return cost;
    };
    ragged.program = [](const Shapes& shapes, const ir::Attrs&,
                        DataType dtype) {
        tir::PrimFunc func = op::makeKvAppendRaggedFunc(
            "lib_kv_append_ragged", shapes[1], shapes[2], shapes[3],
            shapes[4], shapes.back(), dtype);
        // The scatter writes straight into the out tensor, which aliases
        // the pool input — genuine in-place mutation. The pool input
        // leads the DPS signature and is never read.
        func->params.insert(func->params.begin(),
                            tir::makeBuffer("POOL_IN", dtype, shapes[0]));
        return func;
    };
    return ragged;
}

LibraryKernel
uniqueBuiltin()
{
    // unique: data-dependent output; allocates its own result (appended).
    LibraryKernel unique;
    unique.cost = [](const std::vector<PricedArg>& args, const ir::Attrs&,
                     const device::DeviceSpec&) {
        device::KernelCost cost;
        cost.bytes = 2.0 * (double)args[0].sizeBytes();
        cost.flops = (double)args[0].numel() *
                     std::log2((double)std::max<int64_t>(
                         args[0].numel(), 2));
        cost.efficiency = 0.3;
        return cost;
    };
    unique.compute = [](std::vector<NDArray>& args, const ir::Attrs&) {
        std::vector<double> values = args[0].data();
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
        args.push_back(NDArray::fromVector({(int64_t)values.size()},
                                           args[0].dtype(), values));
    };
    return unique;
}

} // namespace

const LibraryKernel*
findLibrary(const std::string& name)
{
    static const std::map<std::string, LibraryKernel> table{
        {"cublas.matmul", gemm()},
        {"rocblas.matmul", gemm()},
        {"mps.matmul", gemm()},
        {"flashattn.attention", attention()},
        {"flashattn.attention_ragged", raggedAttention()},
        {"cutlass.rms_norm", norm(op::makeRMSNormFunc, "lib_rms_norm")},
        {"cutlass.layer_norm", norm(op::makeLayerNormFunc, "lib_layer_norm")},
        {"kv.append", kvAppend()},
        {"kv.append_ragged", kvAppendRagged()},
        {"builtin.unique", uniqueBuiltin()},
    };
    auto it = table.find(name);
    return it == table.end() ? nullptr : &it->second;
}

} // namespace vm
} // namespace relax
