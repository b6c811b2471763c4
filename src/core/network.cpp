#include "core/network.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/rng.h"

namespace slide {

Workspace::Workspace(const Network& net, std::uint64_t seed)
    : ForwardScratch(net.make_forward_scratch(seed)) {
  grads.resize(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    grads[i].grad.reserve(layers[i].act.capacity());
  }
}

Network::Network(NetworkConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.input_dim == 0) throw std::invalid_argument("Network: input_dim must be > 0");
  if (cfg_.layers.empty()) throw std::invalid_argument("Network: needs at least one layer");
  // A live Layer has no int8 weight arena; PackedModel::freeze makes one.
  if (cfg_.precision == Precision::Int8) {
    throw std::invalid_argument("Network: Int8 is serving-only; freeze a trained model instead");
  }
  // forward() normalizes the output and backward() differentiates softmax
  // cross-entropy there and ReLU/Linear below it.
  for (std::size_t i = 0; i < cfg_.layers.size(); ++i) {
    if ((cfg_.layers[i].activation == Activation::Softmax) != (i + 1 == cfg_.layers.size())) {
      throw std::invalid_argument("Network: the output layer, and only it, must be Softmax");
    }
  }
  layers_.reserve(cfg_.layers.size());
  std::size_t prev = cfg_.input_dim;
  ThreadPool& pool = global_pool();
  for (std::size_t i = 0; i < cfg_.layers.size(); ++i) {
    layers_.emplace_back(prev, cfg_.layers[i], cfg_.precision,
                         mix64(cfg_.seed, i, 0x1A7E8ull), weight_layout_for(i, cfg_.layers[i]),
                         &pool);
    prev = cfg_.layers[i].dim;
  }
  rebuild_hash_tables(&pool);
  views_.reserve(layers_.size());
  for (const Layer& L : layers_) views_.push_back(L.view());
}

ForwardScratch Network::make_forward_scratch(std::uint64_t seed) const {
  ForwardScratch s;
  s.layers.reserve(views_.size());
  for (std::size_t i = 0; i < views_.size(); ++i) {
    s.layers.emplace_back(mix64(seed, i, 0x5A3D1E5ull), views_[i]);
  }
  return s;
}

std::size_t Network::num_params() const {
  std::size_t total = 0;
  for (const auto& L : layers_) total += L.num_params();
  return total;
}

float Network::forward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                       Workspace& ws, bool train) {
  inference_forward(views_, cfg_.precision, x, /*sampled=*/true, ws,
                    train ? labels : std::span<const std::uint32_t>{});
  LayerScratch& out = ws.layers.back();
  kernels::softmax_f32(out.act.data(), out.act.size());
  if (!train || labels.empty()) return 0.0f;

  // Cross-entropy against the uniform multi-hot target.  A sampled output
  // holds the forced labels in its first labels.size() slots.
  const float y = 1.0f / static_cast<float>(labels.size());
  float loss = 0.0f;
  for (std::size_t k = 0; k < labels.size(); ++k) {
    const std::uint32_t slot = out.active.empty() ? labels[k] : static_cast<std::uint32_t>(k);
    loss -= y * std::log(std::max(out.act[slot], 1e-30f));
  }
  return loss;
}

void Network::backward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                       Workspace& ws) {
  const std::size_t last = layers_.size() - 1;

  // Softmax + cross-entropy output gradient: dL/dz = p - y.
  {
    const LayerScratch& ow = ws.layers[last];
    AlignedVector<float>& og = ws.grads[last].grad;
    const std::size_t osize = ow.act.size();
    og.resize(osize);
    std::memcpy(og.data(), ow.act.data(), osize * sizeof(float));
    if (!labels.empty()) {
      const float y = 1.0f / static_cast<float>(labels.size());
      if (ow.active.empty()) {
        for (const std::uint32_t l : labels) og[l] -= y;
      } else {
        for (std::size_t k = 0; k < labels.size(); ++k) og[k] -= y;
      }
    }
  }

  for (std::size_t i = last + 1; i-- > 0;) {
    Layer& L = layers_[i];
    const LayerScratch& lw = ws.layers[i];
    Workspace::LayerGrads& lg = ws.grads[i];

    const std::uint32_t* prev_ids = nullptr;
    const float* prev_act = nullptr;
    float* prev_grad = nullptr;
    std::size_t prev_count = 0;
    if (i > 0) {
      const LayerScratch& pw = ws.layers[i - 1];
      AlignedVector<float>& pg = ws.grads[i - 1].grad;
      prev_count = pw.act.size();
      prev_act = pw.act.data();
      prev_ids = pw.active.empty() ? nullptr : pw.active.data();
      pg.resize(prev_count);
      kernels::fill_f32(pg.data(), prev_count, 0.0f);
      prev_grad = pg.data();
      lg.gather_scratch.resize(prev_count);
    }

    if (L.feature_major()) {
      L.accumulate_grad_input(x, lg.grad.data());  // layer 0: nothing to propagate
      continue;
    }
    const std::uint32_t* rows = lw.active.empty() ? nullptr : lw.active.data();
    const std::size_t count = lw.act.size();
    if (i > 0 && prev_ids == nullptr) {
      // Dense previous layer: one fused sweep over the active rows.
      L.backward_rows(rows, lg.grad.data(), count, prev_act, prev_grad);
    } else {
      for (std::size_t k = 0; k < count; ++k) {
        const float g = lg.grad[k];
        if (g == 0.0f) continue;
        const std::uint32_t n = neuron_at(rows, k);
        if (i == 0) {
          L.accumulate_grad_sparse(n, g, x);
        } else {
          L.accumulate_grad_sparse(n, g, {prev_ids, prev_act, prev_count});
          L.backprop_to_sparse(n, g, prev_ids, prev_count, lg.gather_scratch.data(),
                               prev_grad);
        }
      }
    }

    // ReLU derivative for the layer we are about to process.
    if (i > 0 && layers_[i - 1].activation() == Activation::ReLU) {
      for (std::size_t j = 0; j < prev_count; ++j) {
        if (prev_act[j] <= 0.0f) prev_grad[j] = 0.0f;
      }
    }
  }
}

void Network::adam_step(const AdamConfig& cfg, ThreadPool* pool) {
  ++adam_t_;
  const AdamBias bias = adam_bias_correction(cfg, adam_t_);
  for (auto& L : layers_) L.adam_step(cfg, bias, pool);
}

std::size_t Network::on_batch_end(ThreadPool* pool) {
  std::size_t refreshed = 0;
  for (auto& L : layers_) refreshed += L.on_batch_end(pool) ? 1 : 0;
  return refreshed;
}

void Network::rebuild_hash_tables(ThreadPool* pool) {
  for (auto& L : layers_) L.rebuild_tables(pool);
}

void Network::predict_topk(std::span<const data::SparseVectorView> xs, std::size_t k,
                           std::span<ForwardScratch> s,
                           std::span<std::vector<std::uint32_t>> out) const {
  inference_topk(views_, cfg_.precision, xs, /*sampled=*/false, k, s);
  for (std::size_t q = 0; q < xs.size(); ++q) {
    out[q].clear();
    for (const Scored& e : s[q].topk.ranked()) out[q].push_back(e.id);
  }
}

void Network::predict_topk(data::SparseVectorView x, std::size_t k, Workspace& ws,
                           std::vector<std::uint32_t>& out) const {
  predict_topk({&x, 1}, k, {static_cast<ForwardScratch*>(&ws), 1}, {&out, 1});
}

}  // namespace slide
