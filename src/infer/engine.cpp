#include "infer/engine.h"

#include <algorithm>

#include "util/rng.h"

namespace slide::infer {

InferenceEngine::InferenceEngine(const PackedModel& model, std::uint64_t seed)
    : model_(model), seed_(seed) {
  for (std::size_t i = 0; i < model_.num_layers(); ++i) {
    views_.push_back(model_.layer(i).view());
  }
}

std::unique_ptr<InferenceEngine::Scratch> InferenceEngine::acquire_scratch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto s = std::move(free_.back());
      free_.pop_back();
      return s;
    }
  }
  auto s = std::make_unique<Scratch>();
  s->seq = scratch_seq_.fetch_add(1, std::memory_order_relaxed);
  reserve_queries(*s, 1);
  return s;
}

void InferenceEngine::release_scratch(std::unique_ptr<Scratch> s) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(s));
}

void InferenceEngine::reserve_queries(Scratch& s, std::size_t n) const {
  while (s.queries.size() < n) {
    // Slot 0 keeps the (seed, lease) sampler streams; only it ever samples.
    const std::uint64_t slot_seed = seed_ + s.queries.size();
    ForwardScratch& f = s.queries.emplace_back();
    f.layers.reserve(views_.size());
    for (std::size_t i = 0; i < views_.size(); ++i) {
      f.layers.emplace_back(mix64(slot_seed, s.seq, i), views_[i]);
    }
  }
}

void InferenceEngine::predict_topk(data::SparseVectorView x, std::size_t k,
                                   std::vector<std::uint32_t>& ids, TopKMode mode,
                                   std::vector<float>* scores) {
  Lease lease(*this);
  ForwardScratch& f = (*lease).queries[0];
  inference_topk(views_, model_.precision(), {&x, 1}, mode == TopKMode::Sampled, k, {&f, 1});
  const std::span<const Scored> top = f.topk.ranked();
  ids.resize(top.size());
  for (std::size_t j = 0; j < top.size(); ++j) ids[j] = top[j].id;
  if (scores != nullptr) {
    scores->resize(top.size());
    for (std::size_t j = 0; j < top.size(); ++j) (*scores)[j] = top[j].score;
  }
}

void InferenceEngine::predict_topk_batch(std::span<const data::SparseVectorView> xs,
                                         std::size_t k, std::uint32_t* out_ids,
                                         float* out_scores, TopKMode mode,
                                         ThreadPool* pool,
                                         const BatchCompletionFn& on_query_done) {
  if (xs.empty() || k == 0) return;
  if (pool == nullptr) pool = &global_pool();

  const bool sampled = mode == TopKMode::Sampled;
  const auto serve_range = [&](std::size_t lo, std::size_t hi) {
    Lease lease(*this);
    Scratch& s = *lease;
    // Sampled queries run one per call, since their candidate sets differ;
    // a Dense chunk runs as query blocks (one, unless the pool handed this
    // worker more than kQueryBlock queries).
    const std::size_t block = sampled ? 1 : kQueryBlock;
    for (std::size_t b = lo; b < hi; b += block) {
      const std::size_t m = std::min(block, hi - b);
      reserve_queries(s, m);
      inference_topk(views_, model_.precision(), xs.subspan(b, m), sampled, k,
                     std::span(s.queries).first(m));
      // Each query's row of the outputs, padded past its ranking, then its hook.
      for (std::size_t q = 0; q < m; ++q) {
        const std::span<const Scored> top = s.queries[q].topk.ranked();
        std::uint32_t* row = out_ids + (b + q) * k;
        for (std::size_t j = 0; j < top.size(); ++j) row[j] = top[j].id;
        std::fill(row + top.size(), row + k, kInvalidId);
        if (out_scores != nullptr) {
          float* srow = out_scores + (b + q) * k;
          for (std::size_t j = 0; j < top.size(); ++j) srow[j] = top[j].score;
          std::fill(srow + top.size(), srow + k, 0.0f);
        }
        if (on_query_done) on_query_done(b + q);
      }
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
  // while eval-sized batches keep chunky grains that amortize the lease
  // and, in Dense mode, the row sweep (each chunk is one query block).
  const std::size_t grain =
      std::clamp<std::size_t>(xs.size() / (2 * std::size_t{pool->size()}), 1, 8);
  pool->parallel_for_dynamic(xs.size(), grain,
                             [&](unsigned, std::size_t lo, std::size_t hi) {
    serve_range(lo, hi);
  });
}

}  // namespace slide::infer
