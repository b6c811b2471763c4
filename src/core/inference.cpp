#include "core/inference.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace slide {
namespace {

// A feature-major layer (core/layer.h) over a sparse input:
// out[n] = bias[n] + sum_k x_k * w[idx_k][n], nnz contiguous row sweeps.
void feature_major_forward(const float* w, const float* bias, std::size_t dim,
                           data::SparseVectorView x, float* out) {
  std::copy(bias, bias + dim, out);
  kernels::sparse_axpy_rows_f32(x.indices, x.values, x.nnz, w, dim, out, dim);
}
void feature_major_forward(const bf16* w, const float* bias, std::size_t dim,
                           data::SparseVectorView x, float* out) {
  std::copy(bias, bias + dim, out);
  kernels::sparse_axpy_rows_bf16(x.indices, x.values, x.nnz, w, dim, out, dim);
}

// What a layer reads: the sparse query, the previous layer's compact
// (sampled) output, or its full-width output plus the mirrors the precision
// consumes.
struct LayerInput {
  bool sparse;
  const std::uint32_t* idx;  // sparse ids
  std::size_t nnz;
  const float* f32;
  const bf16* b16;
  const std::uint8_t* u8;
};

LayerInput input_of(data::SparseVectorView x, const ForwardScratch& s, std::size_t i) {
  if (i == 0) return {true, x.indices, x.nnz, x.values, nullptr, s.qin.data()};
  const LayerScratch& pw = s.layers[i - 1];
  return {!pw.active.empty(), pw.active.data(), pw.active.size(), pw.act.data(),
          pw.act16.data(), pw.act8.data()};
}

// Unswitched by hand: as one loop over neuron_at it does not vectorize.
void add_bias(const LayerView& L, const std::uint32_t* rows, std::size_t count,
              float* const* out, std::size_t nq) {
  for (std::size_t q = 0; q < nq; ++q) {
    float* o = out[q];
    if (rows == nullptr) {
      for (std::size_t k = 0; k < count; ++k) o[k] += L.bias[k];
    } else {
      for (std::size_t k = 0; k < count; ++k) o[k] += L.bias[rows[k]];
    }
  }
}

// The row dots and epilogue of one precision:
//   sweep   every pre-activation of a feature-major layer on the query;
//   sparse  neuron n's pre-activation on a sparse input;
//   dense   the pre-activations of `rows` (nullptr = 0..count-1) for nq <=
//           kQueryBlock queries with dense inputs in[q], into out[q], in one
//           sweep of the query-block dot_rows_* kernels over the rows.
struct F32Dots {
  static void sweep(const LayerView& L, const LayerInput& in, float* out, ForwardScratch&) {
    feature_major_forward(L.w, L.bias, L.dim, {in.idx, in.f32, in.nnz}, out);
  }
  static float sparse(const LayerView& L, std::uint32_t n, const LayerInput& in) {
    return kernels::sparse_dot_f32(in.idx, in.f32, in.nnz, L.w + n * L.input_dim) + L.bias[n];
  }
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput* in, float* const* out, std::size_t nq, ForwardScratch*) {
    const float* x[kQueryBlock];
    for (std::size_t q = 0; q < nq; ++q) x[q] = in[q].f32;
    kernels::dot_rows_f32(L.w, L.input_dim, rows, count, x, nq, L.input_dim, out);
    add_bias(L, rows, count, out, nq);
  }
};

// fp32 weights, bf16 activations: only dense inputs carry a bf16 mirror.
struct Bf16ActDots : F32Dots {
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput* in, float* const* out, std::size_t nq, ForwardScratch*) {
    const bf16* x[kQueryBlock];
    for (std::size_t q = 0; q < nq; ++q) x[q] = in[q].b16;
    kernels::dot_rows_wf32_xbf16(L.w, L.input_dim, rows, count, x, nq, L.input_dim, out);
    add_bias(L, rows, count, out, nq);
  }
};

struct Bf16Dots {
  static void sweep(const LayerView& L, const LayerInput& in, float* out, ForwardScratch&) {
    feature_major_forward(L.w16, L.bias, L.dim, {in.idx, in.f32, in.nnz}, out);
  }
  static float sparse(const LayerView& L, std::uint32_t n, const LayerInput& in) {
    return kernels::sparse_dot_bf16(in.idx, in.f32, in.nnz, L.w16 + n * L.input_dim) +
           L.bias[n];
  }
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput* in, float* const* out, std::size_t nq, ForwardScratch*) {
    const bf16* x[kQueryBlock];
    for (std::size_t q = 0; q < nq; ++q) x[q] = in[q].b16;
    kernels::dot_rows_wbf16_xbf16(L.w16, L.input_dim, rows, count, x, nq, L.input_dim, out);
    add_bias(L, rows, count, out, nq);
  }
};

// u8 activations against s8 weights, rescaled to fp32:
// <w, x> ~= in_scale * w_scale[n] * (sum w8*u8 - in_zero * sum w8).
struct Int8Dots {
  static float rescale(const LayerView& L, std::uint32_t n, std::int32_t dot,
                       std::int32_t wsum) {
    return L.in_scale * L.w_scale[n] * static_cast<float>(dot - L.in_zero * wsum) + L.bias[n];
  }
  // Sums the same integers sparse_dot_u8s8 would per neuron.
  static void sweep(const LayerView& L, const LayerInput& in, float* out, ForwardScratch& s) {
    s.acc32.resize(L.dim);
    s.wsum32.resize(L.dim);
    kernels::sparse_axpy_rows_u8s8(in.idx, in.u8, in.nnz, L.w8, L.dim, s.acc32.data(),
                                   s.wsum32.data(), L.dim);
    for (std::uint32_t n = 0; n < L.dim; ++n) out[n] = rescale(L, n, s.acc32[n], s.wsum32[n]);
  }
  // Absent inputs are exactly 0 in fp32 and simply missing from the
  // quantized sum, so only the present ids' weights enter the correction.
  static float sparse(const LayerView& L, std::uint32_t n, const LayerInput& in) {
    std::int32_t dot, wsum;
    kernels::sparse_dot_u8s8(in.idx, in.u8, in.nnz, L.w8 + n * L.input_dim, &dot, &wsum);
    return rescale(L, n, dot, wsum);
  }
  // Every input is present, so the correction uses the full-row sums.  The
  // i32 dots land in each query's own acc32 (s points at query 0's scratch).
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput* in, float* const* out, std::size_t nq, ForwardScratch* s) {
    const std::uint8_t* x[kQueryBlock];
    std::int32_t* acc[kQueryBlock];
    for (std::size_t q = 0; q < nq; ++q) {
      x[q] = in[q].u8;
      s[q].acc32.resize(count);
      acc[q] = s[q].acc32.data();
    }
    kernels::dot_rows_u8s8(L.w8, L.input_dim, rows, count, x, nq, L.input_dim, acc);
    for (std::size_t q = 0; q < nq; ++q) {
      float* o = out[q];
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t n = neuron_at(rows, k);
        o[k] = rescale(L, n, acc[q][k], L.w_rowsum[n]);
      }
    }
  }
};

// Rows [r0, r0 + m) of a neuron-major layer, as a layer of their own.
LayerView row_slice(LayerView L, std::size_t r0, std::size_t m) {
  const std::size_t offset = r0 * L.input_dim;
  if (L.w != nullptr) L.w += offset;
  if (L.w16 != nullptr) L.w16 += offset;
  if (L.w8 != nullptr) L.w8 += offset;
  if (L.w_scale != nullptr) L.w_scale += r0;
  if (L.w_rowsum != nullptr) L.w_rowsum += r0;
  L.bias += r0;
  L.dim = m;
  return L;
}

// Layer i, which computes every neuron from dense inputs, for every query
// of the block: kQueryBlock queries per sweep over the rows, `tile` rows
// at a time into each query's act.  With `rank`, each query merges every
// tile into its running top-k before the next tile overwrites it (act
// holds `tile` floats); without, one tile covers the layer.
template <class Dots>
void dense_blocks(const LayerView& L, std::size_t i, std::span<const data::SparseVectorView> xs,
                  std::span<ForwardScratch> s, std::size_t tile, bool rank) {
  LayerInput in[kQueryBlock];
  float* out[kQueryBlock];
  for (std::size_t q0 = 0; q0 < xs.size(); q0 += kQueryBlock) {
    const std::size_t nq = std::min(kQueryBlock, xs.size() - q0);
    for (std::size_t q = 0; q < nq; ++q) {
      in[q] = input_of(xs[q0 + q], s[q0 + q], i);
      out[q] = s[q0 + q].layers[i].act.data();
    }
    for (std::size_t r0 = 0; r0 < L.dim; r0 += tile) {
      const std::size_t m = std::min(tile, L.dim - r0);
      Dots::dense(row_slice(L, r0, m), nullptr, m, in, out, nq, &s[q0]);
      if (!rank) continue;
      for (std::size_t q = 0; q < nq; ++q) {
        s[q0 + q].topk.push(out[q], m, static_cast<std::uint32_t>(r0));
      }
    }
  }
}

// Layer i's pre-activations for every query of the block.  A dense input
// into a layer that computes every neuron runs as dense_blocks; other
// layers go query by query.  (The block's layout is query 0's: an
// unsampled block computes every neuron for every query, and a sampled
// call holds one query.)
template <class Dots>
void pre_activations(const LayerView& L, std::size_t i,
                     std::span<const data::SparseVectorView> xs, std::span<ForwardScratch> s) {
  if (!L.feature_major && i > 0 && s[0].layers[i - 1].active.empty() &&
      s[0].layers[i].active.empty()) {
    dense_blocks<Dots>(L, i, xs, s, L.dim, /*rank=*/false);
    return;
  }
  for (std::size_t q = 0; q < xs.size(); ++q) {
    const LayerInput in = input_of(xs[q], s[q], i);
    LayerScratch& lw = s[q].layers[i];
    const std::uint32_t* rows = lw.active.empty() ? nullptr : lw.active.data();
    float* out = lw.act.data();
    if (L.feature_major) {
      Dots::sweep(L, in, out, s[q]);  // dense input layer: nnz row sweeps
    } else if (in.sparse) {
      for (std::size_t k = 0; k < lw.act.size(); ++k) {
        out[k] = Dots::sparse(L, neuron_at(rows, k), in);
      }
    } else {
      Dots::dense(L, rows, lw.act.size(), &in, &out, 1, &s[q]);
    }
  }
}

// Calls f with the Dots of `precision`.
template <class F>
void with_dots(Precision precision, F&& f) {
  switch (precision) {
    case Precision::Fp32:
      return f(F32Dots{});
    case Precision::Bf16Activations:
      return f(Bf16ActDots{});
    case Precision::Bf16All:
      return f(Bf16Dots{});
    case Precision::Int8:
      return f(Int8Dots{});
  }
}

// Layer i for every query of the block: the candidate selection (sampled
// calls, hashed layers), the pre-activations and, below the output layer,
// the activation and the mirrors layer i + 1 reads.
void forward_layer(std::span<const LayerView> layers, std::size_t i, Precision precision,
                   std::span<const data::SparseVectorView> xs, bool sampled,
                   std::span<ForwardScratch> s, std::span<const std::uint32_t> forced) {
  const LayerView& L = layers[i];

  // --- candidate selection from the tables, query by query ---------------
  // An empty selection (possible with min_active = 0) leaves `active`
  // empty, which computes every neuron.
  for (std::size_t q = 0; q < xs.size(); ++q) {
    LayerScratch& lw = s[q].layers[i];
    lw.active.clear();
    if (sampled && L.family != nullptr) {
      const LayerInput in = input_of(xs[q], s[q], i);
      if (in.sparse) {
        L.family->hash_sparse(in.idx, in.f32, in.nnz, lw.buckets.data());
      } else {
        L.family->hash_dense(in.f32, lw.buckets.data());
      }
      lsh::select_active_set(*L.tables, lw.buckets.data(),
                             i + 1 == layers.size() ? forced : std::span<const std::uint32_t>{},
                             L.dim, L.limits, lw.sampler, lw.active);
    }
    lw.act.resize(lw.active.empty() ? L.dim : lw.active.size());
  }

  // --- pre-activations: the precision picks the dots once per layer ----
  with_dots(precision, [&](auto dots) { pre_activations<decltype(dots)>(L, i, xs, s); });

  if (i + 1 == layers.size()) return;  // output logits stay raw
  const bool bf16_act = precision == Precision::Bf16Activations || precision == Precision::Bf16All;
  for (std::size_t q = 0; q < xs.size(); ++q) {
    LayerScratch& lw = s[q].layers[i];
    const std::size_t count = lw.act.size();
    if (L.activation == Activation::ReLU) kernels::relu_f32(lw.act.data(), count);
    // Linear hidden layers pass through.  The mirrors are what layer i+1 reads.
    if (bf16_act) {
      lw.act16.resize(count);
      kernels::fp32_to_bf16(lw.act.data(), lw.act16.data(), count);
    }
    if (precision == Precision::Int8) {
      // Layer i+1's qparams describe its input, i.e. this layer's output.
      const LayerView& next = layers[i + 1];
      lw.act8.resize(count);
      kernels::quantize_u8(lw.act.data(), lw.act8.data(), count, 1.0f / next.in_scale,
                           next.in_zero);
    }
  }
}

}  // namespace

LayerScratch::LayerScratch(std::uint64_t sampler_seed, const LayerView& layer)
    : sampler(sampler_seed) {
  std::size_t hint = layer.dim;
  if (layer.family != nullptr) {
    buckets.resize(layer.family->num_tables());
    hint = std::min<std::size_t>(hint, std::max<std::size_t>(layer.limits.min_active, 256));
    active.reserve(hint);
  }
  act.reserve(hint);
}

void inference_forward(std::span<const LayerView> layers, Precision precision,
                       std::span<const data::SparseVectorView> xs, bool sampled,
                       std::span<ForwardScratch> s, std::span<const std::uint32_t> forced,
                       std::size_t depth) {
  if (precision == Precision::Int8) {
    // Quantize each query once against layer 0's input qparams; every row
    // then reuses the same u8 buffer.
    for (std::size_t q = 0; q < xs.size(); ++q) {
      s[q].qin.resize(xs[q].nnz);
      kernels::quantize_u8(xs[q].values, s[q].qin.data(), xs[q].nnz,
                           1.0f / layers[0].in_scale, layers[0].in_zero);
    }
  }
  depth = std::min(depth, layers.size());
  for (std::size_t i = 0; i < depth; ++i) {
    forward_layer(layers, i, precision, xs, sampled, s, forced);
  }
}

void inference_topk(std::span<const LayerView> layers, Precision precision,
                    std::span<const data::SparseVectorView> xs, bool sampled, std::size_t k,
                    std::span<ForwardScratch> s) {
  if (xs.empty()) return;
  const std::size_t last = layers.size() - 1;
  const LayerView& L = layers[last];
  inference_forward(layers, precision, xs, sampled, s, {}, last);
  for (std::size_t q = 0; q < xs.size(); ++q) s[q].topk.reset(k);
  // The block's layout is query 0's, as in pre_activations.
  if (!L.feature_major && last > 0 && s[0].layers[last - 1].active.empty() &&
      !(sampled && L.family != nullptr)) {
    for (std::size_t q = 0; q < xs.size(); ++q) {
      LayerScratch& lw = s[q].layers[last];
      lw.active.clear();
      lw.act.resize(std::min(L.dim, kOutputTileRows));
    }
    with_dots(precision, [&](auto dots) {
      dense_blocks<decltype(dots)>(L, last, xs, s, kOutputTileRows, /*rank=*/true);
    });
    for (std::size_t q = 0; q < xs.size(); ++q) s[q].topk.finish();
    return;
  }
  forward_layer(layers, last, precision, xs, sampled, s, {});
  for (std::size_t q = 0; q < xs.size(); ++q) {
    const LayerScratch& out = s[q].layers[last];
    s[q].topk.push(out.act.data(), out.act.size(), 0);
    // Compact logits rank by slot; the slots map back to neuron ids.
    const std::uint32_t* rows = out.active.empty() ? nullptr : out.active.data();
    for (Scored& e : s[q].topk.finish()) e.id = neuron_at(rows, e.id);
  }
}

}  // namespace slide
