#include "core/inference.h"

#include <algorithm>

#include "core/layer.h"
#include "kernels/kernels.h"

namespace slide {
namespace {

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

void add_bias(const LayerView& L, const std::uint32_t* rows, std::size_t count, float* out) {
  for (std::size_t k = 0; k < count; ++k) out[k] += L.bias[rows == nullptr ? k : rows[k]];
}

// The row dots and epilogue of one precision:
//   sweep   every pre-activation of a feature-major layer on the query;
//   sparse  neuron n's pre-activation on a sparse input;
//   dense   the pre-activations of `rows` (nullptr = 0..count-1) on a dense
//           input, through the 4-row-blocked dot_rows_* kernels.
struct F32Dots {
  static void sweep(const LayerView& L, const LayerInput& in, float* out, ForwardScratch&) {
    feature_major_forward(L.w, L.bias, L.dim, {in.idx, in.f32, in.nnz}, out);
  }
  static float sparse(const LayerView& L, std::uint32_t n, const LayerInput& in) {
    return kernels::sparse_dot_f32(in.idx, in.f32, in.nnz, L.w + n * L.input_dim) + L.bias[n];
  }
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput& in, float* out, ForwardScratch&) {
    kernels::dot_rows_f32(L.w, L.input_dim, rows, count, in.f32, L.input_dim, out);
    add_bias(L, rows, count, out);
  }
};

// fp32 weights, bf16 activations: only dense inputs carry a bf16 mirror.
struct Bf16ActDots : F32Dots {
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput& in, float* out, ForwardScratch&) {
    kernels::dot_rows_wf32_xbf16(L.w, L.input_dim, rows, count, in.b16, L.input_dim, out);
    add_bias(L, rows, count, out);
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
                    const LayerInput& in, float* out, ForwardScratch&) {
    kernels::dot_rows_wbf16_xbf16(L.w16, L.input_dim, rows, count, in.b16, L.input_dim, out);
    add_bias(L, rows, count, out);
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
  // Every input is present, so the correction uses the full-row sums.
  static void dense(const LayerView& L, const std::uint32_t* rows, std::size_t count,
                    const LayerInput& in, float* out, ForwardScratch& s) {
    s.acc32.resize(count);
    kernels::dot_rows_u8s8(L.w8, L.input_dim, rows, count, in.u8, L.input_dim, s.acc32.data());
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t n = rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k];
      out[k] = rescale(L, n, s.acc32[k], L.w_rowsum[n]);
    }
  }
};

template <class Dots>
void pre_activations(const LayerView& L, const LayerInput& in, const std::uint32_t* rows,
                     std::size_t count, float* out, ForwardScratch& s) {
  if (L.feature_major) {
    Dots::sweep(L, in, out, s);  // dense input layer: nnz row sweeps
  } else if (in.sparse) {
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = Dots::sparse(L, rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k], in);
    }
  } else {
    Dots::dense(L, rows, count, in, out, s);
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

bool inference_forward(std::span<const LayerView> layers, Precision precision,
                       data::SparseVectorView x, bool sampled, ForwardScratch& s,
                       std::size_t depth) {
  const bool int8 = precision == Precision::Int8;
  const bool bf16_act = precision == Precision::Bf16Activations || precision == Precision::Bf16All;
  if (int8) {
    // Quantize the query once against layer 0's input qparams; every row
    // then reuses the same u8 buffer.
    s.qin.resize(x.nnz);
    kernels::quantize_u8(x.values, s.qin.data(), x.nnz, 1.0f / layers[0].in_scale,
                         layers[0].in_zero);
  }
  depth = std::min(depth, layers.size());
  for (std::size_t i = 0; i < depth; ++i) {
    const LayerView& L = layers[i];
    LayerScratch& lw = s.layers[i];
    LayerInput in{true, x.indices, x.nnz, x.values, nullptr, s.qin.data()};
    if (i > 0) {
      const LayerScratch& pw = s.layers[i - 1];
      in = {!pw.active.empty(), pw.active.data(), pw.active.size(), pw.act.data(),
            pw.act16.data(), pw.act8.data()};
    }

    // --- candidate selection from the frozen tables ----------------------
    lw.active.clear();
    if (sampled && L.family != nullptr) {
      if (in.sparse) {
        L.family->hash_sparse(in.idx, in.f32, in.nnz, lw.buckets.data());
      } else {
        L.family->hash_dense(in.f32, lw.buckets.data());
      }
      lsh::select_active_set(*L.tables, lw.buckets.data(), {}, L.dim, L.limits, lw.sampler,
                             lw.active);
      if (lw.active.empty()) return false;
    }
    const std::size_t count = lw.active.empty() ? L.dim : lw.active.size();
    lw.act.resize(count);

    // --- pre-activations: the precision picks the dots once per layer ----
    const std::uint32_t* rows = lw.active.empty() ? nullptr : lw.active.data();
    switch (precision) {
      case Precision::Fp32:
        pre_activations<F32Dots>(L, in, rows, count, lw.act.data(), s);
        break;
      case Precision::Bf16Activations:
        pre_activations<Bf16ActDots>(L, in, rows, count, lw.act.data(), s);
        break;
      case Precision::Bf16All:
        pre_activations<Bf16Dots>(L, in, rows, count, lw.act.data(), s);
        break;
      case Precision::Int8:
        pre_activations<Int8Dots>(L, in, rows, count, lw.act.data(), s);
        break;
    }

    if (i + 1 == layers.size()) break;  // output logits stay raw
    if (L.activation == Activation::ReLU) kernels::relu_f32(lw.act.data(), count);
    // Linear hidden layers pass through.  The mirrors are what layer i+1 reads.
    if (bf16_act) {
      lw.act16.resize(count);
      kernels::fp32_to_bf16(lw.act.data(), lw.act16.data(), count);
    }
    if (int8) {
      // Layer i+1's qparams describe its input, i.e. this layer's output.
      const LayerView& next = layers[i + 1];
      lw.act8.resize(count);
      kernels::quantize_u8(lw.act.data(), lw.act8.data(), count, 1.0f / next.in_scale,
                           next.in_zero);
    }
  }
  return true;
}

}  // namespace slide
