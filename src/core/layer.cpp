#include "core/layer.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lsh/dwta.h"
#include "lsh/simhash.h"
#include "util/rng.h"

namespace slide {
namespace {

// He init for ReLU layers, Glorot for softmax output layers.
float init_stddev(Activation act, std::size_t fan_in, std::size_t fan_out) {
  if (act == Activation::ReLU) {
    return std::sqrt(2.0f / static_cast<float>(fan_in));
  }
  return std::sqrt(2.0f / static_cast<float>(fan_in + fan_out));
}

// The one split rule for arena sweeps (ADAM, weight init): rows go to the
// pool in grains of about kSweepGrainElems elements, and a sweep of a
// single grain stays on the calling thread.
constexpr std::size_t kSweepGrainElems = std::size_t{1} << 14;

template <class Fn>
void sweep_rows(ThreadPool* pool, std::size_t rows, std::size_t elems_per_row, const Fn& fn) {
  const std::size_t grain =
      std::max<std::size_t>(1, kSweepGrainElems / std::max<std::size_t>(1, elems_per_row));
  if (pool == nullptr || pool->size() == 1 || rows <= grain) {
    fn(0, rows);
    return;
  }
  pool->parallel_for_dynamic(rows, grain,
                             [&](unsigned, std::size_t b, std::size_t e) { fn(b, e); });
}

}  // namespace

Layer::Layer(std::size_t input_dim, const LayerConfig& cfg, Precision precision,
             std::uint64_t seed, WeightLayout layout, ThreadPool* pool)
    : input_dim_(input_dim),
      dim_(cfg.dim),
      cfg_(cfg),
      precision_(precision),
      seed_(seed),
      layout_(layout) {
  if (input_dim_ == 0) throw std::invalid_argument("Layer: input_dim must be > 0");
  if (dim_ == 0) throw std::invalid_argument("Layer: dim must be > 0");
  if (feature_major() && cfg_.lsh.kind != HashKind::None) {
    throw std::invalid_argument("Layer: a hashed layer must be NeuronMajor");
  }

  const std::size_t total = dim_ * input_dim_;
  bias_.assign(dim_, 0.0f);
  gw_.assign(total, 0.0f);
  gb_.assign(dim_, 0.0f);
  mw_.assign(total, 0.0f);
  vw_.assign(total, 0.0f);
  mb_.assign(dim_, 0.0f);
  vb_.assign(dim_, 0.0f);
  dirty_ = std::make_unique<std::atomic<std::uint8_t>[]>(dim_);
  for (std::size_t n = 0; n < dim_; ++n) dirty_[n].store(0, std::memory_order_relaxed);

  init_weights(init_stddev(cfg_.activation, input_dim_, dim_), pool);

  if (cfg_.lsh.kind != HashKind::None) {
    if (cfg_.lsh.kind == HashKind::Dwta) {
      family_ = std::make_unique<lsh::DwtaHash>(input_dim_, cfg_.lsh.k, cfg_.lsh.l,
                                                mix64(seed, 0xD37Aull, dim_));
    } else {
      family_ = std::make_unique<lsh::SimHash>(input_dim_, cfg_.lsh.k, cfg_.lsh.l,
                                               mix64(seed, 0x51Bull, dim_));
    }
    lsh::LshTablesConfig tcfg;
    tcfg.bucket_capacity = cfg_.lsh.bucket_capacity;
    tcfg.policy = cfg_.lsh.bucket_policy;
    tcfg.seed = mix64(seed, 0x7AB1E5ull, dim_);
    tables_ = std::make_unique<lsh::LshTables>(family_->num_tables(), family_->bucket_range(),
                                               tcfg);
    current_rebuild_interval_ = static_cast<double>(cfg_.lsh.rebuild_interval);
    if (cfg_.lsh.maintenance == LshMaintenance::Incremental) {
      incremental_ = true;
      touched_ = std::make_unique<std::atomic<std::uint8_t>[]>(dim_);
      for (std::size_t n = 0; n < dim_; ++n) touched_[n].store(0, std::memory_order_relaxed);
      current_buckets_.resize(dim_ * family_->num_tables());
    }
  }
}

// Deterministic per-neuron init streams: neuron n's weights are the first
// input_dim draws of its own stream, in either layout and however the work
// is split over the pool.  A FeatureMajor task owns a block of kInitColumns
// neurons (whole cache lines of either arena) and advances their streams
// side by side, one feature row at a time.  Bf16All converts as it goes, so
// no fp32 copy of the arena is ever staged (paper mode 1: no fp32 master).
void Layer::init_weights(float stddev, ThreadPool* pool) {
  const bool bf16_w = precision_ == Precision::Bf16All;
  if (bf16_w) {
    w16_.resize(dim_ * input_dim_);
  } else {
    w_.resize(dim_ * input_dim_);
  }
  const auto stream = [&](std::size_t n) { return Rng(mix64(seed_, n, 0xC0FFEEull)); };

  if (!feature_major()) {
    sweep_rows(pool, dim_, input_dim_, [&](std::size_t begin, std::size_t end) {
      AlignedVector<float> staged(bf16_w ? input_dim_ : 0);
      for (std::size_t n = begin; n < end; ++n) {
        Rng rng = stream(n);
        float* row = bf16_w ? staged.data() : w_.data() + n * input_dim_;
        for (std::size_t j = 0; j < input_dim_; ++j) row[j] = stddev * rng.normal_float();
        if (bf16_w) kernels::fp32_to_bf16(row, w16_.data() + n * input_dim_, input_dim_);
      }
    });
    return;
  }
  constexpr std::size_t kInitColumns = 32;
  const std::size_t blocks = (dim_ + kInitColumns - 1) / kInitColumns;
  sweep_rows(pool, blocks, kInitColumns * input_dim_, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t n0 = b * kInitColumns;
      const std::size_t width = std::min(kInitColumns, dim_ - n0);
      std::vector<Rng> streams;
      for (std::size_t n = 0; n < width; ++n) streams.push_back(stream(n0 + n));
      float staged[kInitColumns];
      for (std::size_t j = 0; j < input_dim_; ++j) {
        float* out = bf16_w ? staged : w_.data() + j * dim_ + n0;
        for (std::size_t n = 0; n < width; ++n) out[n] = stddev * streams[n].normal_float();
        if (bf16_w) kernels::fp32_to_bf16(staged, w16_.data() + j * dim_ + n0, width);
      }
    }
  });
}

void Layer::accumulate_grad_input(data::SparseVectorView x, const float* g) {
  for (std::size_t k = 0; k < x.nnz; ++k) {
    kernels::axpy_f32(x.values[k], g, gw_.data() + std::size_t{x.indices[k]} * dim_, dim_);
  }
  kernels::axpy_f32(1.0f, g, gb_.data(), dim_);
  for (std::size_t n = 0; n < dim_; ++n) {
    if (g[n] != 0.0f) mark_dirty(static_cast<std::uint32_t>(n));
  }
}

void Layer::backward_rows(const std::uint32_t* rows, const float* g, std::size_t count,
                          const float* prev_act, float* prev_grad) {
  if (precision_ == Precision::Bf16All) {
    kernels::backward_rows_bf16(w16_.data(), gw_.data(), input_dim_, rows, g, count, prev_act,
                                prev_grad, input_dim_);
  } else {
    kernels::backward_rows_f32(w_.data(), gw_.data(), input_dim_, rows, g, count, prev_act,
                               prev_grad, input_dim_);
  }
  for (std::size_t k = 0; k < count; ++k) {
    if (g[k] == 0.0f) continue;
    const std::uint32_t n = rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k];
    gb_[n] += g[k];
    mark_dirty(n);
  }
}

void Layer::hash_one_neuron(std::uint32_t n, std::uint32_t* out) const {
  if (precision_ == Precision::Bf16All) {
    thread_local std::vector<float> widened;
    widened.resize(input_dim_);
    kernels::bf16_to_fp32(row_bf16(n), widened.data(), input_dim_);
    family_->hash_dense(widened.data(), out);
  } else {
    family_->hash_dense(row_f32(n), out);
  }
}

void Layer::backprop_to_sparse(std::uint32_t n, float g, const std::uint32_t* prev_active,
                               std::size_t count, float* scratch,
                               float* prev_grad_compact) const {
  if (precision_ == Precision::Bf16All) {
    const bf16* row = row_bf16(n);
    for (std::size_t k = 0; k < count; ++k) {
      prev_grad_compact[k] += g * row[prev_active[k]].to_float();
    }
    return;
  }
  kernels::gather_f32(scratch, row_f32(n), prev_active, count);
  kernels::axpy_f32(g, scratch, prev_grad_compact, count);
}

void Layer::adam_step(const AdamConfig& cfg, const AdamBias& bias, ThreadPool* pool) {
  // ADAM over `count` consecutive elements of the weight-shaped arenas.
  const auto adam_weights = [&](std::size_t at, std::size_t count) {
    if (precision_ == Precision::Bf16All) {
      kernels::adam_step_bf16(w16_.data() + at, mw_.data() + at, vw_.data() + at,
                              gw_.data() + at, count, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps,
                              bias.inv_bias1, bias.inv_bias2);
    } else {
      kernels::adam_step_f32(w_.data() + at, mw_.data() + at, vw_.data() + at,
                             gw_.data() + at, count, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps,
                             bias.inv_bias1, bias.inv_bias2);
    }
  };
  const auto adam_biases = [&](std::size_t n, std::size_t count) {
    kernels::adam_step_f32(bias_.data() + n, mb_.data() + n, vb_.data() + n, gb_.data() + n,
                           count, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, bias.inv_bias1,
                           bias.inv_bias2);
  };

  if (!feature_major()) {
    sweep_rows(pool, dim_, input_dim_, [&](std::size_t begin, std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) {
        if (dirty_[n].load(std::memory_order_relaxed) == 0) continue;
        dirty_[n].store(0, std::memory_order_relaxed);
        adam_weights(n * input_dim_, input_dim_);
        adam_biases(n, 1);
      }
    });
    return;
  }

  // FeatureMajor: the dirty neurons as runs of adjacent columns, so each
  // feature row takes a few contiguous sweeps (one once every neuron is
  // dirty, the common case for a dense layer).
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  std::size_t dirty = 0;
  for (std::size_t n = 0; n < dim_; ++n) {
    if (dirty_[n].load(std::memory_order_relaxed) == 0) continue;
    dirty_[n].store(0, std::memory_order_relaxed);
    ++dirty;
    if (!runs.empty() && runs.back().second == n) {
      ++runs.back().second;
    } else {
      runs.emplace_back(n, n + 1);
    }
  }
  if (dirty == 0) return;
  for (const auto& [b, e] : runs) adam_biases(b, e - b);
  sweep_rows(pool, input_dim_, dirty, [&](std::size_t begin, std::size_t end) {
    for (std::size_t f = begin; f < end; ++f) {
      for (const auto& [b, e] : runs) adam_weights(f * dim_ + b, e - b);
    }
  });
}

void Layer::hash_all_neurons(std::uint32_t* bucket_indices, ThreadPool* pool) const {
  const std::size_t num_tables = family_->num_tables();
  const auto hash_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t n = begin; n < end; ++n) {
      hash_one_neuron(static_cast<std::uint32_t>(n), bucket_indices + n * num_tables);
    }
  };
  if (pool != nullptr && dim_ >= 128) {
    pool->parallel_for_dynamic(dim_, 32, [&](unsigned, std::size_t b, std::size_t e) {
      hash_range(b, e);
    });
  } else {
    hash_range(0, dim_);
  }
}

void Layer::rebuild_tables(ThreadPool* pool) {
  if (!uses_hashing()) return;
  std::vector<std::uint32_t> buckets(dim_ * family_->num_tables());
  hash_all_neurons(buckets.data(), pool);
  tables_->bulk_load(buckets.data(), dim_, pool);
  if (incremental_) {
    current_buckets_ = buckets;  // the incremental path diffs against these
    for (std::size_t n = 0; n < dim_; ++n) touched_[n].store(0, std::memory_order_relaxed);
  }
}

void Layer::incremental_update(ThreadPool* pool) {
  if (!uses_hashing()) return;
  if (!incremental_) {
    rebuild_tables(pool);
    return;
  }
  const std::size_t num_tables = family_->num_tables();

  // Phase 1: re-hash touched neurons (parallel) and collect those whose
  // bucket moved in at least one table.
  std::mutex mu;
  std::vector<std::uint32_t> changed;       // neuron ids
  std::vector<std::uint32_t> new_buckets;   // changed.size() x num_tables
  const auto scan = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> buf(num_tables);
    std::vector<std::uint32_t> local_changed;
    std::vector<std::uint32_t> local_new;
    for (std::size_t n = begin; n < end; ++n) {
      if (touched_[n].exchange(0, std::memory_order_relaxed) == 0) continue;
      hash_one_neuron(static_cast<std::uint32_t>(n), buf.data());
      const std::uint32_t* old_row = current_buckets_.data() + n * num_tables;
      bool moved = false;
      for (std::size_t t = 0; t < num_tables && !moved; ++t) moved = buf[t] != old_row[t];
      if (moved) {
        local_changed.push_back(static_cast<std::uint32_t>(n));
        local_new.insert(local_new.end(), buf.begin(), buf.end());
      }
    }
    if (!local_changed.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      changed.insert(changed.end(), local_changed.begin(), local_changed.end());
      new_buckets.insert(new_buckets.end(), local_new.begin(), local_new.end());
    }
  };
  if (pool != nullptr && dim_ >= 128) {
    pool->parallel_for_dynamic(dim_, 64, [&](unsigned, std::size_t b, std::size_t e) {
      scan(b, e);
    });
  } else {
    scan(0, dim_);
  }
  if (changed.empty()) return;

  // Phase 2: move the changed entries, table by table (tables independent).
  const auto apply = [&](std::size_t t) {
    for (std::size_t c = 0; c < changed.size(); ++c) {
      const std::uint32_t n = changed[c];
      const std::uint32_t old_bucket = current_buckets_[n * num_tables + t];
      const std::uint32_t new_bucket = new_buckets[c * num_tables + t];
      if (old_bucket == new_bucket) continue;
      tables_->erase_one(t, old_bucket, n);
      tables_->insert_one(t, new_bucket, n);
    }
  };
  if (pool != nullptr && num_tables >= 4) {
    pool->parallel_for_dynamic(num_tables, 1, [&](unsigned, std::size_t b, std::size_t e) {
      for (std::size_t t = b; t < e; ++t) apply(t);
    });
  } else {
    for (std::size_t t = 0; t < num_tables; ++t) apply(t);
  }
  for (std::size_t c = 0; c < changed.size(); ++c) {
    std::copy(new_buckets.begin() + c * num_tables,
              new_buckets.begin() + (c + 1) * num_tables,
              current_buckets_.begin() + changed[c] * num_tables);
  }
}

bool Layer::on_batch_end(ThreadPool* pool) {
  if (!uses_hashing()) return false;
  if (++batches_since_rebuild_ <
      static_cast<std::size_t>(current_rebuild_interval_)) {
    return false;
  }
  if (cfg_.lsh.maintenance == LshMaintenance::Incremental) {
    incremental_update(pool);
  } else {
    rebuild_tables(pool);
  }
  batches_since_rebuild_ = 0;
  current_rebuild_interval_ *= cfg_.lsh.rebuild_growth;
  return true;
}

}  // namespace slide
