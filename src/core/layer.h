// One fully-connected layer with contiguous parameter arenas and optional
// LSH neuron sampling.
//
// Memory layout (paper Section 4.1, "Removing Parameter Memory
// Fragmentation"): the weights, the gradient and both ADAM moments each live
// in ONE aligned arena, all four in the same row order, so what one training
// step touches is contiguous and the per-batch ADAM sweep streams (Fig. 3).
// The row order is chosen per layer (WeightLayout):
//   NeuronMajor   one input_dim-wide row per neuron: SLIDE's layout.  Hashed
//                 layers keep it, because their tables hash whole neuron
//                 rows and forward/backward touch only the active rows.
//   FeatureMajor  one dim-wide row per input feature: the dense layer fed by
//                 the sparse input.  Forward is h = b + sum_k x_k * W[idx_k],
//                 nnz contiguous row sweeps (Algorithm 2) instead of dim
//                 gathered dots; backward is G[idx_k] += x_k * g, nnz rows
//                 instead of dim scattered ones; ADAM sweeps feature rows on
//                 the pool.  Either way ADAM updates exactly the dirty
//                 neurons' weights: rows in one layout, columns in the other.
// Network gives layer 0 FeatureMajor whenever it is not hashed.
//
// A Layer has no forward code of its own: training and inference both run
// the one pass of core/inference.h over view(), with its one rule for an
// empty LSH selection (the layer computes every neuron).  Backward, ADAM
// and the table maintenance live here.
//
// Gradients are accumulated HOGWILD-style: worker threads add into the
// shared gradient arena without synchronization (Recht et al. 2011; paper
// Section 2).  Lost updates are tolerated by design — SLIDE's active sets
// are sparse enough that collisions are rare.  The per-neuron dirty flags
// ARE atomic (relaxed), so the ADAM sweep never misses a touched neuron.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "core/adam.h"
#include "core/config.h"
#include "core/inference.h"
#include "data/sparse_batch.h"
#include "kernels/kernels.h"
#include "lsh/hash_function.h"
#include "lsh/lsh_table.h"
#include "threading/thread_pool.h"
#include "util/aligned.h"
#include "util/bf16.h"

namespace slide {

enum class WeightLayout { NeuronMajor, FeatureMajor };

// The layout Network (and a frozen PackedModel) gives the layer at
// `position`: FeatureMajor for a dense layer 0, NeuronMajor otherwise.
inline WeightLayout weight_layout_for(std::size_t position, const LayerConfig& cfg) {
  return position == 0 && cfg.lsh.kind == HashKind::None ? WeightLayout::FeatureMajor
                                                         : WeightLayout::NeuronMajor;
}

class Layer {
 public:
  // FeatureMajor requires a dense layer (cfg.lsh.kind == None).  The
  // initial weights are drawn on `pool` when one is given; they do not
  // depend on it.
  Layer(std::size_t input_dim, const LayerConfig& cfg, Precision precision,
        std::uint64_t seed, WeightLayout layout = WeightLayout::NeuronMajor,
        ThreadPool* pool = nullptr);

  // Movable (Network stores layers in a vector), not copyable.
  Layer(Layer&&) noexcept = default;
  Layer& operator=(Layer&&) noexcept = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  std::size_t dim() const { return dim_; }
  std::size_t input_dim() const { return input_dim_; }
  // Construction seed: the hash family and table RNG streams are derived
  // from it, so a frozen PackedModel can rebuild identical LSH state.
  std::uint64_t seed() const { return seed_; }
  Activation activation() const { return cfg_.activation; }
  Precision precision() const { return precision_; }
  bool uses_hashing() const { return family_ != nullptr; }
  const LayerConfig& config() const { return cfg_; }
  std::size_t num_params() const { return dim_ * input_dim_ + dim_; }
  bool feature_major() const { return layout_ == WeightLayout::FeatureMajor; }

  // Arena index of neuron n's weight on input j, in either layout; indexes
  // the weight, gradient and moment arenas alike.
  std::size_t weight_index(std::uint32_t n, std::size_t j) const {
    return feature_major() ? j * dim_ + n : std::size_t{n} * input_dim_ + j;
  }
  // Neuron n's weight on input j (widened from bf16 under Bf16All).
  float weight(std::uint32_t n, std::size_t j) const {
    const std::size_t i = weight_index(n, j);
    return precision_ == Precision::Bf16All ? w16_[i].to_float() : w_[i];
  }

  // --- backward (HOGWILD; called concurrently from worker threads) --------
  // FeatureMajor: G[idx_k] += x_k * g for every input feature, where g holds
  // dL/dz for all dim() neurons; marks the neurons with g != 0 dirty.
  void accumulate_grad_input(data::SparseVectorView x, const float* g);

  // NeuronMajor from here on.
  // Dense previous layer, one call per example: for each of the `count`
  // neurons rows[k] (rows == nullptr means 0..count-1) with g[k] != 0, adds
  // g[k] * prev_act into its gradient row and g[k] * its weight row into
  // prev_grad (the transposed product of Algorithm 2) in one backward_rows_*
  // sweep, then adds g[k] to its bias gradient and marks it dirty.
  void backward_rows(const std::uint32_t* rows, const float* g, std::size_t count,
                     const float* prev_act, float* prev_grad);
  // Accumulates g * x into neuron n's gradient row for a sparse input
  // vector (first layer, or a sampled previous layer).
  void accumulate_grad_sparse(std::uint32_t n, float g, data::SparseVectorView x) {
    const std::size_t row = static_cast<std::size_t>(n) * input_dim_;
    kernels::scatter_axpy_f32(g, x.indices, x.values, x.nnz, gw_.data() + row);
    gb_[n] += g;
    mark_dirty(n);
  }
  // Compact variant for a *sparse* previous layer: prev_grad_compact[k] +=
  // g * w_row(n)[prev_active[k]].  `scratch` must hold >= count floats.
  void backprop_to_sparse(std::uint32_t n, float g, const std::uint32_t* prev_active,
                          std::size_t count, float* scratch, float* prev_grad_compact) const;

  // Loads before storing: once a flag is set, the other workers' copies of
  // its cache line stay valid.
  void mark_dirty(std::uint32_t n) {
    if (dirty_[n].load(std::memory_order_relaxed) == 0) {
      dirty_[n].store(1, std::memory_order_relaxed);
    }
    if (incremental_ && touched_[n].load(std::memory_order_relaxed) == 0) {
      touched_[n].store(1, std::memory_order_relaxed);
    }
  }

  // --- optimizer -----------------------------------------------------------
  // Applies ADAM to every dirty neuron's weights (plus its bias) and clears
  // the flags.  Parallel over arena rows when a pool is given and the sweep
  // is large enough to pay for it.
  void adam_step(const AdamConfig& cfg, const AdamBias& bias, ThreadPool* pool);

  // --- LSH maintenance -------------------------------------------------------
  // Recomputes every neuron's hashes and reloads the tables.  No-op for
  // dense layers.
  void rebuild_tables(ThreadPool* pool);
  // Incremental maintenance: re-hashes only neurons whose weights changed
  // since the last maintenance and moves the entries whose bucket moved
  // (paper Section 2's delete-and-reinsert).  No-op for dense layers.
  void incremental_update(ThreadPool* pool);
  // Counts a finished batch; refreshes tables on SLIDE's growing schedule
  // using the configured maintenance strategy.  Returns true on a refresh.
  bool on_batch_end(ThreadPool* pool);

  // This layer as the forward pass (core/inference.h) reads it.
  LayerView view() const {
    return {.input_dim = input_dim_, .dim = dim_, .feature_major = feature_major(),
            .activation = cfg_.activation, .w = w_.data(), .w16 = w16_.data(),
            .bias = bias_.data(), .family = family_.get(), .tables = tables_.get(),
            .limits = {cfg_.lsh.min_active, cfg_.lsh.max_active}};
  }

  const lsh::HashFamily* hash_family() const { return family_.get(); }
  const lsh::LshTables* tables() const { return tables_.get(); }

  // --- raw access (serialization, tests) -----------------------------------
  // The arenas in layout order (see weight_index).
  std::span<float> weights_f32() { return {w_.data(), w_.size()}; }
  std::span<const float> weights_f32() const { return {w_.data(), w_.size()}; }
  std::span<bf16> weights_bf16() { return {w16_.data(), w16_.size()}; }
  std::span<const bf16> weights_bf16() const { return {w16_.data(), w16_.size()}; }
  std::span<float> biases() { return {bias_.data(), bias_.size()}; }
  std::span<const float> biases() const { return {bias_.data(), bias_.size()}; }
  std::span<const float> weight_gradients() const { return {gw_.data(), gw_.size()}; }
  std::span<const float> bias_gradients() const { return {gb_.data(), gb_.size()}; }
  std::span<float> moment1() { return {mw_.data(), mw_.size()}; }
  std::span<const float> moment1() const { return {mw_.data(), mw_.size()}; }
  std::span<float> moment2() { return {vw_.data(), vw_.size()}; }
  std::span<const float> moment2() const { return {vw_.data(), vw_.size()}; }
  std::span<float> bias_moment1() { return {mb_.data(), mb_.size()}; }
  std::span<const float> bias_moment1() const { return {mb_.data(), mb_.size()}; }
  std::span<float> bias_moment2() { return {vb_.data(), vb_.size()}; }
  std::span<const float> bias_moment2() const { return {vb_.data(), vb_.size()}; }
  // Neuron n's row of a NeuronMajor arena (undefined for Bf16All; use
  // row_bf16).  FeatureMajor layers have no neuron rows: use weight().
  const float* row_f32(std::uint32_t n) const { return w_.data() + std::size_t{n} * input_dim_; }
  const bf16* row_bf16(std::uint32_t n) const {
    return w16_.data() + std::size_t{n} * input_dim_;
  }

 private:
  void hash_all_neurons(std::uint32_t* bucket_indices, ThreadPool* pool) const;

  void init_weights(float stddev, ThreadPool* pool);

  std::size_t input_dim_ = 0;
  std::size_t dim_ = 0;
  LayerConfig cfg_;
  Precision precision_ = Precision::Fp32;
  std::uint64_t seed_ = 0;
  WeightLayout layout_ = WeightLayout::NeuronMajor;

  AlignedVector<float> w_;    // dim x input_dim in layout order (Fp32 / Bf16Activations)
  AlignedVector<bf16> w16_;   // dim x input_dim in layout order (Bf16All)
  AlignedVector<float> bias_;
  AlignedVector<float> gw_;   // gradient arena, same shape as weights
  AlignedVector<float> gb_;
  AlignedVector<float> mw_, vw_;  // ADAM moments (always fp32)
  AlignedVector<float> mb_, vb_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_;

  std::unique_ptr<lsh::HashFamily> family_;
  std::unique_ptr<lsh::LshTables> tables_;
  std::size_t batches_since_rebuild_ = 0;
  double current_rebuild_interval_ = 0.0;

  // Incremental maintenance state (allocated only in that mode): per-neuron
  // "weights changed" flags and the bucket indices currently stored in the
  // tables (dim x num_tables, row-major).
  bool incremental_ = false;
  std::unique_ptr<std::atomic<std::uint8_t>[]> touched_;
  std::vector<std::uint32_t> current_buckets_;

  void hash_one_neuron(std::uint32_t n, std::uint32_t* out) const;
};

}  // namespace slide
