// Evaluation metrics: Precision@k (the paper reports P@1 throughout) and
// the ranking every top-k in the library runs through.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace slide {

// One ranked output: a raw score and the id it belongs to.
struct Scored {
  float score;
  std::uint32_t id;
};

// The k best (score, id) pairs of a stream whose ids arrive in ascending
// order, ordered by score descending, ties to the lower id.  The first k
// pairs fill a heap whose top is the k-th best; after that a pair enters
// only with a score strictly above that top (a later id loses every tie),
// so push() jumps from one such score to the next with the vectorized
// kernels::first_above_f32 and touches the heap only on a hit.  NaN scores
// never enter a full heap.  A stream fed in pieces (an output layer's row
// tiles) keeps exactly the pairs one span would.
class TopK {
 public:
  // Starts a new stream that keeps the k best pairs.
  void reset(std::size_t k) {
    k_ = k;
    heap_.clear();
  }
  // Merges scores[j] as id first_id + j for j in [0, n); first_id exceeds
  // every id merged since reset().
  void push(const float* scores, std::size_t n, std::uint32_t first_id);
  // Ends the stream: orders the kept pairs best first and returns them
  // (ids may be rewritten, say from compact slots to neuron ids).  Call
  // once per reset(); ranked() reads the result afterwards.
  std::span<Scored> finish();
  std::span<const Scored> ranked() const { return heap_; }

 private:
  std::size_t k_ = 0;
  std::vector<Scored> heap_;  // until finish(): a heap whose front is the k-th best
};

// Indices of the k largest scores, descending; ties resolve to lower index.
// A TopK over the one span scores[0, n).
void topk_indices(const float* scores, std::size_t n, std::size_t k,
                  std::vector<std::uint32_t>& out);

// Fraction of the top-k predictions that are true labels (P@k as defined in
// extreme classification: |topk ∩ labels| / k).
double precision_at_k(std::span<const std::uint32_t> topk,
                      std::span<const std::uint32_t> labels);

}  // namespace slide
