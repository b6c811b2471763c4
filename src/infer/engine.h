// Thread-safe, batched serving front end over a PackedModel.
//
// The engine owns a pool of scratch leases (activations, active sets,
// sampler state: one ForwardScratch of core/inference.h per query of a
// block).  Every query or worker chunk leases one, so any number of caller
// threads can issue queries concurrently against the same immutable model;
// the batch entry point fans a whole query batch out over the thread pool
// with one lease per worker chunk.
//
// Both ranking modes run the library's one ranking pass (inference_topk
// in core/inference.h), the code Network::predict_topk and the trainer's
// eval run too:
//   Dense    every output neuron is evaluated through the blocked
//            dot_rows_* kernels, kOutputTileRows rows at a time, and each
//            tile merges into the query's running top-k: exact, and
//            bit-identical to Network::predict_topk on the same frozen
//            weights.  A batch runs each worker chunk as query blocks of
//            kQueryBlock queries at every output width, so each weight row
//            is loaded once per block.
//   Sampled  the frozen LSH tables pick a candidate set first (SLIDE's
//            sublinear inference); top-k is taken over the candidates only.
//            Candidate sets differ per query, so a batch runs query by query.
// Scores are raw pre-softmax logits in both modes (softmax is monotone, so
// the ranking is unchanged).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/inference.h"
#include "data/sparse_batch.h"
#include "infer/packed_model.h"
#include "threading/thread_pool.h"

namespace slide::infer {

enum class TopKMode { Dense, Sampled };

class InferenceEngine {
 public:
  // Pad value for batch output slots beyond the candidate count (sampled
  // queries can return fewer than k candidates).
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

  // The model must outlive the engine.  `seed` drives the sampled mode's
  // random top-up streams (one independent stream per leased scratch).
  explicit InferenceEngine(const PackedModel& model, std::uint64_t seed = 0x5E11Cull);

  const PackedModel& model() const { return model_; }

  // --- single query (thread-safe) -----------------------------------------
  // Fills `ids` with up to k neuron ids, best first; `scores` (optional)
  // receives the matching logits.
  void predict_topk(data::SparseVectorView x, std::size_t k, std::vector<std::uint32_t>& ids,
                    TopKMode mode = TopKMode::Dense, std::vector<float>* scores = nullptr);

  // --- batched queries ----------------------------------------------------
  // Per-query completion hook for the batch path: invoked with the query's
  // index exactly once, as soon as that query's output row is final — i.e.
  // before the rest of the batch finishes (the partial-batch path the
  // serving layer uses to complete request futures early).  A Sampled query
  // is final when it finishes, a Dense one when its query block does.  Runs
  // on whichever pool worker served the query; must be thread-safe.
  using BatchCompletionFn = std::function<void(std::size_t query)>;

  // Serves xs.size() queries, fanning out over `pool` (the global pool when
  // nullptr).  out_ids is xs.size() x k row-major, padded with kInvalidId;
  // out_scores (optional) has the same shape.  Thread-safe like the single-
  // query path, though typically one thread submits whole batches.  With an
  // empty batch or k == 0 the call returns at once and `on_query_done` is
  // never invoked.
  void predict_topk_batch(std::span<const data::SparseVectorView> xs, std::size_t k,
                          std::uint32_t* out_ids, float* out_scores = nullptr,
                          TopKMode mode = TopKMode::Dense, ThreadPool* pool = nullptr,
                          const BatchCompletionFn& on_query_done = {});

 private:
  struct Scratch {
    std::uint64_t seq = 0;  // which lease this is: seeds its samplers
    // One per query of a Dense block, added as blocks need them; queries[0]
    // also serves single and Sampled queries.
    std::vector<ForwardScratch> queries;
  };
  // RAII lease: returns the scratch to the freelist on destruction.
  class Lease {
   public:
    explicit Lease(InferenceEngine& e) : engine_(e), scratch_(e.acquire_scratch()) {}
    ~Lease() { engine_.release_scratch(std::move(scratch_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Scratch& operator*() { return *scratch_; }

   private:
    InferenceEngine& engine_;
    std::unique_ptr<Scratch> scratch_;
  };

  std::unique_ptr<Scratch> acquire_scratch();
  void release_scratch(std::unique_ptr<Scratch> s);
  // Gives a lease at least n query slots.
  void reserve_queries(Scratch& s, std::size_t n) const;

  const PackedModel& model_;
  std::vector<LayerView> views_;  // one per model layer
  std::uint64_t seed_;
  std::atomic<std::uint64_t> scratch_seq_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scratch>> free_;
};

}  // namespace slide::infer
