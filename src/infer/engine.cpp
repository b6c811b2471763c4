#include "infer/engine.h"

#include <algorithm>

#include "core/metrics.h"
#include "kernels/kernels.h"
#include "lsh/sampler.h"
#include "util/rng.h"

namespace slide::infer {

InferenceEngine::InferenceEngine(const PackedModel& model, std::uint64_t seed)
    : model_(model), seed_(seed) {}

std::unique_ptr<InferenceEngine::Scratch> InferenceEngine::acquire_scratch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto s = std::move(free_.back());
      free_.pop_back();
      return s;
    }
  }
  const std::uint64_t seq = scratch_seq_.fetch_add(1, std::memory_order_relaxed);
  auto s = std::make_unique<Scratch>();
  s->layers.reserve(model_.num_layers());
  for (std::size_t i = 0; i < model_.num_layers(); ++i) {
    const PackedModel::Layer& L = model_.layer(i);
    LayerScratch st(mix64(seed_, seq, i));
    if (L.uses_hashing()) {
      st.buckets.resize(L.family->num_tables());
      const std::size_t hint =
          std::min<std::size_t>(L.dim, std::max<std::size_t>(L.cfg.lsh.min_active, 256));
      st.active.reserve(hint);
      st.act.reserve(hint);
    } else {
      st.act.reserve(L.dim);
    }
    s->layers.push_back(std::move(st));
  }
  return s;
}

void InferenceEngine::release_scratch(std::unique_ptr<Scratch> s) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(s));
}

// One forward pass, kernel-for-kernel identical to the Network paths so
// that fp32 logits — and therefore the top-k — are bit-identical to
// Network::predict_topk.  With use_tables, hashed layers select an LSH
// candidate set first (compact activations over `active`); without, every
// layer runs full-width through the blocked dot_rows_* kernels.  Returns
// false when a hashed layer produced an empty candidate set (possible when
// min_active == 0 and every probed bucket is empty) — the pass is aborted
// and the caller falls back to the exact pass.
bool InferenceEngine::forward_pass(data::SparseVectorView x, bool use_tables, Scratch& s) {
  const Precision prec = model_.precision();
  const bool int8 = prec == Precision::Int8;
  const bool bf16_act = prec == Precision::Bf16Activations || prec == Precision::Bf16All;
  const bool bf16_w = prec == Precision::Bf16All;
  const std::size_t last = model_.num_layers() - 1;
  if (int8) {
    // Quantize the query's sparse values once against layer 0's input
    // qparams; every candidate row then reuses the same u8 buffer.
    const PackedModel::Layer& L0 = model_.layer(0);
    s.qin.resize(x.nnz);
    kernels::quantize_u8(x.values, s.qin.data(), x.nnz, 1.0f / L0.in_scale, L0.in_zero);
  }
  for (std::size_t i = 0; i < model_.num_layers(); ++i) {
    const PackedModel::Layer& L = model_.layer(i);
    LayerScratch& lw = s.layers[i];

    // --- candidate selection from the frozen tables ----------------------
    std::size_t count;
    if (use_tables && L.uses_hashing()) {
      if (i == 0) {
        L.family->hash_sparse(x.indices, x.values, x.nnz, lw.buckets.data());
      } else {
        const LayerScratch& pw = s.layers[i - 1];
        if (pw.active.empty()) {
          L.family->hash_dense(pw.act.data(), lw.buckets.data());
        } else {
          L.family->hash_sparse(pw.active.data(), pw.act.data(), pw.active.size(),
                                lw.buckets.data());
        }
      }
      const lsh::SamplerLimits limits{L.cfg.lsh.min_active, L.cfg.lsh.max_active};
      lsh::select_active_set(*L.tables, lw.buckets.data(), {}, L.dim, limits, lw.sampler,
                             lw.active);
      count = lw.active.size();
      if (count == 0) return false;
    } else {
      lw.active.clear();
      count = L.dim;
    }
    lw.act.resize(count);

    // --- pre-activations --------------------------------------------------
    if (i == 0 && L.feature_major) {
      // Feature-major (dense) input layer: nnz row sweeps, the same routine
      // training runs.  Int8 sums the same integers sparse_dot_u8s8 would
      // per neuron, so the zero-point correction below is unchanged.
      if (int8) {
        s.acc32.resize(count);
        s.wsum32.resize(count);
        kernels::sparse_axpy_rows_u8s8(x.indices, s.qin.data(), x.nnz, L.w8.data(), L.dim,
                                       s.acc32.data(), s.wsum32.data(), L.dim);
        for (std::size_t n = 0; n < count; ++n) {
          lw.act[n] = L.in_scale * L.w_scale[n] *
                          static_cast<float>(s.acc32[n] - L.in_zero * s.wsum32[n]) +
                      L.bias[n];
        }
      } else if (bf16_w) {
        feature_major_forward(L.w16.data(), L.bias.data(), L.dim, x, lw.act.data());
      } else {
        feature_major_forward(L.w.data(), L.bias.data(), L.dim, x, lw.act.data());
      }
    } else if (i == 0) {
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t n =
            lw.active.empty() ? static_cast<std::uint32_t>(k) : lw.active[k];
        if (int8) {
          // Sparse input: absent features are exactly 0 in fp32 and simply
          // missing from the quantized sum, so only the participating
          // indices' weights enter the zero-point correction (wsum).
          std::int32_t dot, wsum;
          kernels::sparse_dot_u8s8(x.indices, s.qin.data(), x.nnz, L.row_i8(n), &dot,
                                   &wsum);
          lw.act[k] = L.in_scale * L.w_scale[n] *
                          static_cast<float>(dot - L.in_zero * wsum) +
                      L.bias[n];
        } else {
          lw.act[k] = (bf16_w ? kernels::sparse_dot_bf16(x.indices, x.values, x.nnz,
                                                         L.row_bf16(n))
                              : kernels::sparse_dot_f32(x.indices, x.values, x.nnz,
                                                        L.row_f32(n))) +
                      L.bias[n];
        }
      }
    } else {
      const LayerScratch& pw = s.layers[i - 1];
      if (!pw.active.empty()) {
        // Compact (sampled) previous layer: per-neuron gathered dots.
        for (std::size_t k = 0; k < count; ++k) {
          const std::uint32_t n =
              lw.active.empty() ? static_cast<std::uint32_t>(k) : lw.active[k];
          if (int8) {
            std::int32_t dot, wsum;
            kernels::sparse_dot_u8s8(pw.active.data(), pw.act8.data(), pw.active.size(),
                                     L.row_i8(n), &dot, &wsum);
            lw.act[k] = L.in_scale * L.w_scale[n] *
                            static_cast<float>(dot - L.in_zero * wsum) +
                        L.bias[n];
          } else {
            lw.act[k] = (bf16_w ? kernels::sparse_dot_bf16(pw.active.data(), pw.act.data(),
                                                           pw.active.size(), L.row_bf16(n))
                                : kernels::sparse_dot_f32(pw.active.data(), pw.act.data(),
                                                          pw.active.size(), L.row_f32(n))) +
                        L.bias[n];
          }
        }
      } else {
        // Dense previous layer: blocked dots over the (candidate) rows.
        const std::uint32_t* rows = lw.active.empty() ? nullptr : lw.active.data();
        if (int8) {
          // Full-width previous layer: every input is represented, so the
          // zero-point correction uses the precomputed full-row weight sums.
          s.acc32.resize(count);
          kernels::dot_rows_u8s8(L.w8.data(), L.input_dim, rows, count, pw.act8.data(),
                                 L.input_dim, s.acc32.data());
          for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t n =
                rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k];
            lw.act[k] = L.in_scale * L.w_scale[n] *
                            static_cast<float>(s.acc32[k] - L.in_zero * L.w_rowsum[n]) +
                        L.bias[n];
          }
        } else {
          if (bf16_w) {
            kernels::dot_rows_wbf16_xbf16(L.w16.data(), L.input_dim, rows, count,
                                          pw.act16.data(), L.input_dim, lw.act.data());
          } else if (bf16_act) {
            kernels::dot_rows_wf32_xbf16(L.w.data(), L.input_dim, rows, count,
                                         pw.act16.data(), L.input_dim, lw.act.data());
          } else {
            kernels::dot_rows_f32(L.w.data(), L.input_dim, rows, count, pw.act.data(),
                                  L.input_dim, lw.act.data());
          }
          if (rows != nullptr) {
            for (std::size_t k = 0; k < count; ++k) lw.act[k] += L.bias[rows[k]];
          } else {
            for (std::size_t k = 0; k < count; ++k) lw.act[k] += L.bias[k];
          }
        }
      }
    }

    const bool output_layer = i == last;
    if (!output_layer && L.activation() == Activation::ReLU) {
      kernels::relu_f32(lw.act.data(), count);
    }  // Linear hidden layers pass through; output logits stay raw.
    if (bf16_act && !output_layer) {
      lw.act16.resize(count);
      kernels::fp32_to_bf16(lw.act.data(), lw.act16.data(), count);
    }
    if (int8 && !output_layer) {
      // Layer i+1's qparams describe its input — i.e. this layer's output.
      const PackedModel::Layer& N = model_.layer(i + 1);
      lw.act8.resize(count);
      kernels::quantize_u8(lw.act.data(), lw.act8.data(), count, 1.0f / N.in_scale,
                           N.in_zero);
    }
  }
  return true;
}

void InferenceEngine::forward(data::SparseVectorView x, TopKMode mode, Scratch& s) {
  if (mode == TopKMode::Sampled && forward_pass(x, /*use_tables=*/true, s)) return;
  forward_pass(x, /*use_tables=*/false, s);
}

void InferenceEngine::emit_topk(Scratch& s, std::size_t k, std::vector<std::uint32_t>& ids,
                                std::vector<float>* scores) {
  const LayerScratch& out = s.layers.back();
  if (out.active.empty()) {
    topk_indices(out.act.data(), out.act.size(), k, ids);
  } else {
    // Compact logits: rank, then map back to real neuron ids.
    topk_indices(out.act.data(), out.act.size(), k, s.topk);
    ids.resize(s.topk.size());
    for (std::size_t j = 0; j < s.topk.size(); ++j) ids[j] = out.active[s.topk[j]];
    if (scores != nullptr) {
      scores->resize(s.topk.size());
      for (std::size_t j = 0; j < s.topk.size(); ++j) (*scores)[j] = out.act[s.topk[j]];
    }
    return;
  }
  if (scores != nullptr) {
    scores->resize(ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) (*scores)[j] = out.act[ids[j]];
  }
}

void InferenceEngine::predict_topk(data::SparseVectorView x, std::size_t k,
                                   std::vector<std::uint32_t>& ids, TopKMode mode,
                                   std::vector<float>* scores) {
  Lease lease(*this);
  forward(x, mode, *lease);
  emit_topk(*lease, k, ids, scores);
}

std::uint32_t InferenceEngine::predict_top1(data::SparseVectorView x, TopKMode mode) {
  Lease lease(*this);
  Scratch& s = *lease;
  forward(x, mode, s);
  const LayerScratch& out = s.layers.back();
  const std::size_t best = kernels::argmax_f32(out.act.data(), out.act.size());
  return out.active.empty() ? static_cast<std::uint32_t>(best) : out.active[best];
}

void InferenceEngine::predict_topk_batch(std::span<const data::SparseVectorView> xs,
                                         std::size_t k, std::uint32_t* out_ids,
                                         float* out_scores, TopKMode mode,
                                         ThreadPool* pool,
                                         const BatchCompletionFn& on_query_done) {
  if (xs.empty() || k == 0) return;
  if (pool == nullptr) pool = &global_pool();

  const auto serve_range = [&](std::size_t lo, std::size_t hi) {
    Lease lease(*this);
    Scratch& s = *lease;
    std::vector<std::uint32_t> ids;
    std::vector<float> scores;
    for (std::size_t q = lo; q < hi; ++q) {
      forward(xs[q], mode, s);
      emit_topk(s, k, ids, out_scores != nullptr ? &scores : nullptr);
      std::uint32_t* row = out_ids + q * k;
      std::copy(ids.begin(), ids.end(), row);
      std::fill(row + ids.size(), row + k, kInvalidId);
      if (out_scores != nullptr) {
        float* srow = out_scores + q * k;
        std::copy(scores.begin(), scores.end(), srow);
        std::fill(srow + scores.size(), srow + k, 0.0f);
      }
      if (on_query_done) on_query_done(q);
    }
  };

  // Small batches aren't worth a pool wake-up, and a 1-thread pool adds
  // latency without adding parallelism.
  if (xs.size() < 4 || pool->size() == 1) {
    serve_range(0, xs.size());
    return;
  }
  // Grain adapts to the batch: serving-sized batches (say 8 queries on 8
  // workers) split all the way down so tail latency scales with the pool,
  // while eval-sized batches keep chunky grains that amortize the lease.
  const std::size_t grain =
      std::clamp<std::size_t>(xs.size() / (2 * std::size_t{pool->size()}), 1, 8);
  pool->parallel_for_dynamic(xs.size(), grain,
                             [&](unsigned, std::size_t lo, std::size_t hi) {
    serve_range(lo, hi);
  });
}

}  // namespace slide::infer
