// The library's one forward pass: the Algorithm 1/2 dot products (paper
// Sections 4.2-4.4) over every neuron, or over SLIDE's LSH-sampled active
// sets, for a block of queries.  Training (Network::forward: this pass with
// the example's labels forced into the output layer's active set, then the
// softmax and the loss) and PackedModel's int8 calibration run
// inference_forward; every ranking (Network::predict_topk and through it
// the trainer's eval, InferenceEngine) runs inference_topk, the same pass
// with the output layer merged into a running top-k tile by tile.  So a
// frozen copy ranks exactly like the live network.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "data/sparse_batch.h"
#include "lsh/hash_function.h"
#include "lsh/lsh_table.h"
#include "lsh/sampler.h"
#include "util/aligned.h"
#include "util/bf16.h"

namespace slide {

// Non-owning view of one layer's inference state.  slide::Layer::view() and
// PackedModel::Layer::view() produce one; it stays valid while the layer
// lives.  The pass reads the arena the model precision names: `w` at Fp32
// and Bf16Activations, `w16` at Bf16All, `w8` plus the qparams at Int8.
struct LayerView {
  std::size_t input_dim = 0;
  std::size_t dim = 0;
  bool feature_major = false;  // arenas hold input_dim rows of dim (core/layer.h)
  Activation activation = Activation::ReLU;
  const float* w = nullptr;
  const bf16* w16 = nullptr;
  const std::int8_t* w8 = nullptr;
  const float* bias = nullptr;
  // Int8: w(n, j) ~= w_scale[n] * w8(n, j); this layer's input quantizes as
  // u8 = round(x / in_scale) + in_zero; w_rowsum[n] = sum_j w8(n, j).
  const float* w_scale = nullptr;
  const std::int32_t* w_rowsum = nullptr;
  float in_scale = 1.0f;
  std::int32_t in_zero = 0;
  // Hashed layers only (family == nullptr for a dense layer).
  const lsh::HashFamily* family = nullptr;
  const lsh::LshTables* tables = nullptr;
  lsh::SamplerLimits limits;
};

// One layer's query state: the LSH-selected active set, the activations
// (fp32 master plus the bf16/u8 mirrors the next layer reads), the
// per-table bucket indices and the sampler's dedup scratch.
struct LayerScratch {
  std::vector<std::uint32_t> active;  // empty when every neuron was computed
  AlignedVector<float> act;           // fp32 master activations
  AlignedVector<bf16> act16;          // bf16 mirror (bf16 precisions)
  AlignedVector<std::uint8_t> act8;   // u8 quantized mirror (Int8)
  std::vector<std::uint32_t> buckets; // one bucket index per hash table
  lsh::SamplerScratch sampler;

  // Sizes the buckets and reserves the buffers for `layer`.
  LayerScratch(std::uint64_t sampler_seed, const LayerView& layer);
};

// The neuron behind slot k of a layer's outputs: rows[k], or k when the
// layer computed every neuron (rows == nullptr, an empty active set).
inline std::uint32_t neuron_at(const std::uint32_t* rows, std::size_t k) {
  return rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k];
}

// One query's scratch: a LayerScratch per layer, the int8 path's
// query-wide buffers and inference_topk's ranking.  The training Workspace
// extends it with gradient buffers; a block of queries runs in one per
// query.
struct ForwardScratch {
  std::vector<LayerScratch> layers;
  TopK topk;                           // inference_topk's result
  AlignedVector<std::uint8_t> qin;     // Int8: the query's quantized values
  AlignedVector<std::int32_t> acc32;   // Int8: raw i32 dot accumulators
  AlignedVector<std::int32_t> wsum32;  // Int8: the input layer's zero-point weight sums
};

// Queries a caller runs through the pass together: the trainer's eval
// chunk and the serving engine's dense block.  A dense layer sweeps its
// rows once per kQueryBlock queries.
inline constexpr std::size_t kQueryBlock = 16;

// Rows per tile of inference_topk's output sweep.  A multiple of 4, so
// dot_rows_*'s four-row groups and leftover rows fall on the rows a
// whole-layer sweep gives them; a block's tile (16 queries x 256 fp32
// logits, 16 KiB) stays in L1 while its queries rank it.
inline constexpr std::size_t kOutputTileRows = 256;

// Runs the first `depth` layers of `layers` on the queries xs at
// `precision`, query q in s[q] (s.size() >= xs.size()), leaving its layer
// i's activations in s[q].layers[i].act: full width over every neuron, or,
// with `sampled`, compact over the neurons a hashed layer's tables select
// (s[q].layers[i].active).  `forced` (a training example's labels) enters
// the last layer's selection first (lsh::select_active_set).  The one
// empty-selection rule: a hashed layer whose selection comes up empty
// (possible with min_active = 0) computes every neuron, as a dense layer
// does.  The last layer's logits stay raw (softmax is monotone, so rankings
// need no normalization); every other layer applies its ReLU.
//
// A layer with a dense input that computes every neuron runs the block in
// one sweep over its rows (dot_rows_* over kQueryBlock queries at a time);
// feature-major, sparse-input and sampled layers run query by query.
// Either way query q's results are bit for bit those of a block of one.
// pre_activations reads a block's layout (sampled or dense, layer by layer)
// from query 0, and an empty selection can make one query's layout differ
// from another's, so sampled calls run one query per call.
void inference_forward(std::span<const LayerView> layers, Precision precision,
                       std::span<const data::SparseVectorView> xs, bool sampled,
                       std::span<ForwardScratch> s, std::span<const std::uint32_t> forced = {},
                       std::size_t depth = std::numeric_limits<std::size_t>::max());

// One query: a block of one.
inline void inference_forward(std::span<const LayerView> layers, Precision precision,
                              data::SparseVectorView x, bool sampled, ForwardScratch& s,
                              std::span<const std::uint32_t> forced = {},
                              std::size_t depth = std::numeric_limits<std::size_t>::max()) {
  inference_forward(layers, precision, {&x, 1}, sampled, {&s, 1}, forced, depth);
}

// Ranks the output neurons of the queries xs: query q's k best land in
// s[q].topk.ranked(), best first, as (raw logit, neuron id) pairs in the
// order topk_indices gives over inference_forward's logits (score
// descending, ties to the lower id; a sampled output ranks its compact
// logits, ties to the lower slot, and maps the slots to neuron ids).  The
// hidden layers run as in inference_forward.  An output layer that
// computes every neuron from a dense input never holds a query's full
// logits: the block sweeps its rows kOutputTileRows at a time, each tile
// (with the bias, at Int8 the rescale) landing in s[q].layers.back().act
// and merging into the query's running top-k, with scores bit for bit
// those of a whole-layer sweep.  Feature-major, sparse-input and sampled
// output layers compute their full or compact logits in act first.  Every
// dense ranking in the library (Network::predict_topk, the trainer's eval,
// InferenceEngine) runs through here; sampled calls hold one query.
void inference_topk(std::span<const LayerView> layers, Precision precision,
                    std::span<const data::SparseVectorView> xs, bool sampled, std::size_t k,
                    std::span<ForwardScratch> s);

}  // namespace slide
