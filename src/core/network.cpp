#include "core/network.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/metrics.h"
#include "util/rng.h"

namespace slide {

Workspace::Workspace(const Network& net, std::uint64_t seed) {
  layers.reserve(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const Layer& L = net.layer(i);
    LayerState st(mix64(seed, i, 0x5A3D1E5ull));
    if (L.uses_hashing()) {
      st.buckets.resize(L.hash_family()->num_tables());
      const std::size_t hint =
          std::min<std::size_t>(L.dim(), std::max<std::size_t>(L.config().lsh.min_active, 256));
      st.active.reserve(hint);
      st.act.reserve(hint);
      st.grad.reserve(hint);
    } else {
      st.act.resize(L.dim());
      st.grad.resize(L.dim());
      if (net.precision() != Precision::Fp32) st.act16.resize(L.dim());
    }
    layers.push_back(std::move(st));
  }
}

Network::Network(NetworkConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.input_dim == 0) throw std::invalid_argument("Network: input_dim must be > 0");
  if (cfg_.layers.empty()) throw std::invalid_argument("Network: needs at least one layer");
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
}

std::size_t Network::num_params() const {
  std::size_t total = 0;
  for (const auto& L : layers_) total += L.num_params();
  return total;
}

float Network::forward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                       Workspace& ws, bool train) {
  const bool bf16_act = cfg_.precision != Precision::Fp32;
  float loss = 0.0f;

  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& L = layers_[i];
    auto& lw = ws.layers[i];
    const bool output_layer = i + 1 == layers_.size();

    // --- active-set selection ------------------------------------------
    std::size_t count;
    if (L.uses_hashing()) {
      if (i == 0) {
        L.hash_input_sparse(x, lw.buckets.data());
      } else {
        const auto& pw = ws.layers[i - 1];
        if (pw.active.empty()) {
          L.hash_input_dense(pw.act.data(), lw.buckets.data());
        } else {
          L.hash_input_sparse({pw.active.data(), pw.act.data(), pw.active.size()},
                              lw.buckets.data());
        }
      }
      const lsh::SamplerLimits limits{L.config().lsh.min_active, L.config().lsh.max_active};
      const std::span<const std::uint32_t> forced =
          (train && output_layer) ? labels : std::span<const std::uint32_t>{};
      lsh::select_active_set(*L.tables(), lw.buckets.data(), forced, L.dim(), limits,
                             lw.sampler, lw.active);
      count = lw.active.size();
    } else {
      lw.active.clear();
      count = L.dim();
    }
    lw.act.resize(count);

    // --- pre-activations ---------------------------------------------------
    if (i == 0 && L.feature_major()) {
      // Sparse input into a feature-major layer: nnz row sweeps.
      L.pre_activation_all(x, lw.act.data());
    } else if (i == 0) {
      // Sparse input into a hashed layer: gather-based dots per active
      // neuron (Algorithm 1 over a sparse vector).
      for (std::size_t k = 0; k < count; ++k) lw.act[k] = L.pre_activation(lw.active[k], x);
    } else {
      const auto& pw = ws.layers[i - 1];
      if (!pw.active.empty()) {
        // Compact (sparse) previous layer.
        const data::SparseVectorView prev{pw.active.data(), pw.act.data(),
                                          pw.active.size()};
        if (L.uses_hashing()) {
          for (std::size_t k = 0; k < count; ++k) lw.act[k] = L.pre_activation(lw.active[k], prev);
        } else {
          for (std::size_t j = 0; j < count; ++j) {
            lw.act[j] = L.pre_activation(static_cast<std::uint32_t>(j), prev);
          }
        }
      } else {
        // Dense previous layer: 4-row-blocked batched dots.
        const std::uint32_t* rows = L.uses_hashing() ? lw.active.data() : nullptr;
        L.pre_activation_rows(rows, count, pw.act.data(),
                              bf16_act ? pw.act16.data() : nullptr, lw.act.data());
      }
    }

    // --- nonlinearity --------------------------------------------------------
    if (L.activation() == Activation::Softmax) {
      kernels::softmax_f32(lw.act.data(), count);
    } else if (L.activation() == Activation::ReLU) {
      kernels::relu_f32(lw.act.data(), count);
    }  // Linear: pre-activations pass through (word2vec projection layer)
    if (bf16_act) {
      lw.act16.resize(count);
      kernels::fp32_to_bf16(lw.act.data(), lw.act16.data(), count);
    }

    // --- loss -----------------------------------------------------------------
    if (train && output_layer && !labels.empty()) {
      const float y = 1.0f / static_cast<float>(labels.size());
      if (L.uses_hashing()) {
        // select_active_set guarantees the forced labels occupy the first
        // labels.size() slots of the active set.
        for (std::size_t k = 0; k < labels.size(); ++k) {
          loss -= y * std::log(std::max(lw.act[k], 1e-30f));
        }
      } else {
        for (const std::uint32_t l : labels) {
          loss -= y * std::log(std::max(lw.act[l], 1e-30f));
        }
      }
    }
  }
  return loss;
}

void Network::backward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                       Workspace& ws) {
  const std::size_t last = layers_.size() - 1;

  // Softmax + cross-entropy output gradient: dL/dz = p - y.
  {
    auto& ow = ws.layers[last];
    const std::size_t osize = ow.act.size();
    ow.grad.resize(osize);
    std::memcpy(ow.grad.data(), ow.act.data(), osize * sizeof(float));
    if (!labels.empty()) {
      const float y = 1.0f / static_cast<float>(labels.size());
      if (ow.active.empty()) {
        for (const std::uint32_t l : labels) ow.grad[l] -= y;
      } else {
        for (std::size_t k = 0; k < labels.size(); ++k) ow.grad[k] -= y;
      }
    }
  }

  for (std::size_t i = last + 1; i-- > 0;) {
    Layer& L = layers_[i];
    auto& lw = ws.layers[i];

    Workspace::LayerState* pw = i > 0 ? &ws.layers[i - 1] : nullptr;
    const std::uint32_t* prev_ids = nullptr;
    const float* prev_act = nullptr;
    std::size_t prev_count = 0;
    if (pw != nullptr) {
      prev_count = pw->act.size();
      prev_act = pw->act.data();
      prev_ids = pw->active.empty() ? nullptr : pw->active.data();
      pw->grad.resize(prev_count);
      kernels::fill_f32(pw->grad.data(), prev_count, 0.0f);
      lw.gather_scratch.resize(prev_count);
    }

    if (L.feature_major()) {
      L.accumulate_grad_input(x, lw.grad.data());  // layer 0: nothing to propagate
      continue;
    }
    const std::size_t count = lw.act.size();
    for (std::size_t k = 0; k < count; ++k) {
      const float g = lw.grad[k];
      if (g == 0.0f) continue;
      const std::uint32_t n =
          lw.active.empty() ? static_cast<std::uint32_t>(k) : lw.active[k];
      if (i == 0) {
        L.accumulate_grad_sparse(n, g, x);
      } else if (prev_ids != nullptr) {
        L.accumulate_grad_sparse(n, g, {prev_ids, prev_act, prev_count});
        L.backprop_to_sparse(n, g, prev_ids, prev_count, lw.gather_scratch.data(),
                             pw->grad.data());
      } else {
        L.accumulate_grad_dense(n, g, prev_act);
        L.backprop_to_dense(n, g, pw->grad.data());
      }
    }

    // ReLU derivative for the layer we are about to process.
    if (pw != nullptr && layers_[i - 1].activation() == Activation::ReLU) {
      for (std::size_t j = 0; j < prev_count; ++j) {
        if (prev_act[j] <= 0.0f) pw->grad[j] = 0.0f;
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

void Network::forward_dense_all(data::SparseVectorView x, Workspace& ws) const {
  const bool bf16_act = cfg_.precision != Precision::Fp32;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& L = layers_[i];
    auto& lw = ws.layers[i];
    const std::size_t count = L.dim();
    lw.active.clear();
    lw.act.resize(count);
    if (i == 0 && L.feature_major()) {
      L.pre_activation_all(x, lw.act.data());
    } else if (i == 0) {
      for (std::size_t j = 0; j < count; ++j) {
        lw.act[j] = L.pre_activation(static_cast<std::uint32_t>(j), x);
      }
    } else {
      const auto& pw = ws.layers[i - 1];
      L.pre_activation_rows(nullptr, count, pw.act.data(),
                            bf16_act ? pw.act16.data() : nullptr, lw.act.data());
    }
    const bool output_layer = i + 1 == layers_.size();
    if (!output_layer && L.activation() == Activation::ReLU) {
      kernels::relu_f32(lw.act.data(), count);
    }  // Linear hidden layers pass through
    // Output logits stay raw: softmax is monotone, argmax/top-k need no
    // normalization.
    if (bf16_act && !output_layer) {
      lw.act16.resize(count);
      kernels::fp32_to_bf16(lw.act.data(), lw.act16.data(), count);
    }
  }
}

std::uint32_t Network::predict_top1(data::SparseVectorView x, Workspace& ws) const {
  forward_dense_all(x, ws);
  const auto& out = ws.layers.back().act;
  return static_cast<std::uint32_t>(kernels::argmax_f32(out.data(), out.size()));
}

void Network::predict_topk(data::SparseVectorView x, std::size_t k, Workspace& ws,
                           std::vector<std::uint32_t>& out) const {
  forward_dense_all(x, ws);
  const auto& logits = ws.layers.back().act;
  topk_indices(logits.data(), logits.size(), k, out);
}

std::uint32_t Network::predict_top1_sampled(data::SparseVectorView x, Workspace& ws) {
  forward(x, {}, ws, /*train=*/false);
  const auto& ow = ws.layers.back();
  if (ow.active.empty()) return predict_top1(x, ws);  // degenerate: no candidates
  const std::size_t best = kernels::argmax_f32(ow.act.data(), ow.act.size());
  return ow.active[best];
}

}  // namespace slide
