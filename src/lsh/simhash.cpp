#include "lsh/simhash.h"

#include <stdexcept>
#include <vector>

#include "kernels/kernels.h"
#include "util/rng.h"

namespace slide::lsh {

SimHash::SimHash(std::size_t dim, int k, int l, std::uint64_t seed,
                 std::size_t max_table_bytes)
    : dim_(dim), k_(k), l_(l), seed_(seed) {
  if (dim == 0) throw std::invalid_argument("SimHash: dim must be > 0");
  if (k < 1 || k > 30) throw std::invalid_argument("SimHash: k must be in [1, 30]");
  if (l < 1) throw std::invalid_argument("SimHash: l must be >= 1");
  check_total_buckets("SimHash", std::size_t{1} << k, l);
  num_bits_ = static_cast<std::size_t>(k_) * static_cast<std::size_t>(l_);
  if (num_bits_ * dim_ * sizeof(float) <= max_table_bytes) {
    signs_.resize(num_bits_ * dim_);
    for (std::size_t b = 0; b < num_bits_; ++b) {
      for (std::size_t i = 0; i < dim_; ++i) {
        signs_[b * dim_ + i] = sign_at(b, i);
      }
    }
  }
}

float SimHash::sign_at(std::size_t bit, std::size_t i) const {
  return (mix64(seed_ ^ 0x51A4A5Full, bit, i) & 1u) ? 1.0f : -1.0f;
}

void SimHash::hash_dense(const float* x, std::uint32_t* out) const {
  thread_local std::vector<float> sums;
  sums.resize(num_bits_);
  if (!signs_.empty()) {
    for (std::size_t b = 0; b < num_bits_; ++b) {
      sums[b] = kernels::dot_f32(signs_.data() + b * dim_, x, dim_);
    }
  } else {
    for (std::size_t b = 0; b < num_bits_; ++b) {
      float s = 0.0f;
      for (std::size_t i = 0; i < dim_; ++i) s += x[i] * sign_at(b, i);
      sums[b] = s;
    }
  }
  for (int t = 0; t < l_; ++t) {
    std::uint32_t idx = 0;
    const std::size_t base = static_cast<std::size_t>(t) * k_;
    for (int j = 0; j < k_; ++j) {
      idx = (idx << 1) | (sums[base + j] > 0.0f ? 1u : 0u);
    }
    out[t] = idx;
  }
}

void SimHash::hash_sparse(const std::uint32_t* indices, const float* values, std::size_t nnz,
                          std::uint32_t* out) const {
  thread_local std::vector<float> sums;
  sums.resize(num_bits_);
  if (!signs_.empty()) {
    for (std::size_t b = 0; b < num_bits_; ++b) {
      sums[b] = kernels::sparse_dot_f32(indices, values, nnz, signs_.data() + b * dim_);
    }
  } else {
    for (std::size_t b = 0; b < num_bits_; ++b) sums[b] = 0.0f;
    for (std::size_t n = 0; n < nnz; ++n) {
      const std::uint32_t i = indices[n];
      const float v = values[n];
      for (std::size_t b = 0; b < num_bits_; ++b) {
        sums[b] += v * sign_at(b, i);
      }
    }
  }
  for (int t = 0; t < l_; ++t) {
    std::uint32_t idx = 0;
    const std::size_t base = static_cast<std::size_t>(t) * k_;
    for (int j = 0; j < k_; ++j) {
      idx = (idx << 1) | (sums[base + j] > 0.0f ? 1u : 0u);
    }
    out[t] = idx;
  }
}

}  // namespace slide::lsh
