#include "core/metrics.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace slide {
namespace {

// "a ranks before b": the heap is a min-heap on it, so its front is the
// worst kept pair, and sort_heap leaves the best first.
bool better(const Scored& a, const Scored& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

}  // namespace

void TopK::push(const float* scores, std::size_t n, std::uint32_t first_id) {
  std::size_t j = 0;
  for (; j < n && heap_.size() < k_; ++j) {
    heap_.push_back({scores[j], first_id + static_cast<std::uint32_t>(j)});
    std::push_heap(heap_.begin(), heap_.end(), better);
  }
  if (heap_.empty()) return;  // k == 0
  while (j < n) {
    j += kernels::first_above_f32(scores + j, n - j, heap_.front().score);
    if (j == n) break;
    std::pop_heap(heap_.begin(), heap_.end(), better);
    heap_.back() = {scores[j], first_id + static_cast<std::uint32_t>(j)};
    std::push_heap(heap_.begin(), heap_.end(), better);
    ++j;
  }
}

std::span<Scored> TopK::finish() {
  std::sort_heap(heap_.begin(), heap_.end(), better);
  return heap_;
}

void topk_indices(const float* scores, std::size_t n, std::size_t k,
                  std::vector<std::uint32_t>& out) {
  TopK top;
  top.reset(k);
  top.push(scores, n, 0);
  out.clear();
  for (const Scored& e : top.finish()) out.push_back(e.id);
}

double precision_at_k(std::span<const std::uint32_t> topk,
                      std::span<const std::uint32_t> labels) {
  if (topk.empty()) return 0.0;
  std::size_t hits = 0;
  for (const std::uint32_t p : topk) {
    for (const std::uint32_t l : labels) {
      if (p == l) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(topk.size());
}

}  // namespace slide
