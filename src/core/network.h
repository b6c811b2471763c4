// The SLIDE network: sparse-input MLP whose hashed layers compute only an
// LSH-selected active set per example (paper Sections 2 and 4).
//
// Training and inference run the library's one forward pass,
// inference_forward in core/inference.h, the same code a frozen PackedModel
// serves through: forward() runs it sampled, with the example's labels
// forced into the output layer's active set, then adds the softmax and the
// loss; predict_topk (and with it the trainer's eval) ranks it unsampled
// through inference_topk.  A
// hashed layer whose selection comes up empty computes every neuron.
//
// Threading model: Network owns the shared state (weights, gradient arenas,
// hash tables).  Each worker thread owns a Workspace and calls
// forward()/backward() on its own examples concurrently (HOGWILD); the
// trainer then calls adam_step() and on_batch_end() from a single thread
// between batches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/inference.h"
#include "core/layer.h"

namespace slide {

class Network;

// Per-thread buffers for one example's forward/backward pass: the
// inference pass's per-layer scratch (core/inference.h) plus the
// gradient-side buffers training adds, one per layer.
class Workspace : public ForwardScratch {
 public:
  Workspace(const Network& net, std::uint64_t seed);

  struct LayerGrads {
    AlignedVector<float> grad;  // dL/d(pre-activation), same indexing as act
    AlignedVector<float> gather_scratch;
  };
  std::vector<LayerGrads> grads;
};

class Network {
 public:
  // Throws std::invalid_argument unless the last layer, and only it, is
  // Softmax.
  explicit Network(NetworkConfig cfg);

  const NetworkConfig& config() const { return cfg_; }
  Precision precision() const { return cfg_.precision; }
  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return layers_[i]; }
  const Layer& layer(std::size_t i) const { return layers_[i]; }
  std::size_t input_dim() const { return cfg_.input_dim; }
  std::size_t output_dim() const { return layers_.back().dim(); }
  std::size_t num_params() const;
  // The layers as the inference pass reads them (core/inference.h).
  std::span<const LayerView> views() const { return views_; }

  Workspace make_workspace(std::uint64_t seed = 0) const { return Workspace(*this, seed); }
  // One query's inference scratch (a Workspace without the gradient
  // buffers); `seed` seeds its samplers as make_workspace's does.
  ForwardScratch make_forward_scratch(std::uint64_t seed = 0) const;

  // Sampled forward pass (inference_forward) plus the output softmax.  In
  // training mode the example's labels are forced into the output layer's
  // active set (they occupy the first labels.size() slots).  Returns the
  // cross-entropy loss against the uniform multi-hot target when `train`
  // and labels are present, else 0.
  // Thread-safe across distinct workspaces.
  float forward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                Workspace& ws, bool train);

  // Backpropagates from the softmax output and accumulates gradients into
  // the shared arenas (HOGWILD).  Must follow a forward(train=true) call on
  // the same workspace/example.
  void backward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                Workspace& ws);

  // One optimizer step over all dirty rows (call once per batch).
  void adam_step(const AdamConfig& cfg, ThreadPool* pool);

  // Batch bookkeeping: advances every hashed layer's rebuild schedule.
  // Returns how many layers refreshed their tables this batch (usually 0).
  std::size_t on_batch_end(ThreadPool* pool);
  // Forces an immediate rebuild of all hash tables.
  void rebuild_hash_tables(ThreadPool* pool);

  // Full (dense) inference for a block of queries through the shared
  // ranking (inference_topk, core/inference.h): evaluates every output
  // neuron and fills out[q] with the k best for xs[q], best first (score
  // descending, ties to the lower id).  Query q runs in s[q], whose
  // topk.ranked() also holds the k best logits.  The output layer is
  // ranked tile by tile, so s[q].layers.back().act does not hold the full
  // logits; inference_forward(views(), precision(), x, false, s) computes
  // them.  Used for P@k.
  void predict_topk(std::span<const data::SparseVectorView> xs, std::size_t k,
                    std::span<ForwardScratch> s,
                    std::span<std::vector<std::uint32_t>> out) const;
  // One query: a block of one.
  void predict_topk(data::SparseVectorView x, std::size_t k, Workspace& ws,
                    std::vector<std::uint32_t>& out) const;

  std::uint64_t adam_steps() const { return adam_t_; }
  void set_adam_steps(std::uint64_t t) { adam_t_ = t; }

 private:
  NetworkConfig cfg_;
  std::vector<Layer> layers_;
  // Built once: layers_ never reallocates, nor do the arenas and tables the
  // views point into (moving the Network keeps them in place).
  std::vector<LayerView> views_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace slide
