#include "lsh/dwta.h"

#include <cfloat>
#include <numeric>
#include <stdexcept>

#include "kernels/kernels.h"
#include "util/rng.h"

namespace slide::lsh {
namespace {

// Thread-local scratch shared by all DwtaHash instances; resized on demand.
struct Scratch {
  AlignedVector<float> binned;
  std::vector<std::uint8_t> winners;
};
Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

DwtaHash::DwtaHash(std::size_t dim, int k, int l, std::uint64_t seed)
    : dim_(dim), k_(k), l_(l), seed_(seed) {
  if (dim == 0) throw std::invalid_argument("DwtaHash: dim must be > 0");
  if (k < 1 || k > 10) throw std::invalid_argument("DwtaHash: k must be in [1, 10]");
  if (l < 1) throw std::invalid_argument("DwtaHash: l must be >= 1");
  check_total_buckets("DwtaHash", std::size_t{1} << (kBitsPerHash * k), l);

  num_bins_ = static_cast<std::size_t>(k_) * static_cast<std::size_t>(l_);
  num_positions_ = num_bins_ * kBinSize;
  permutations_ = static_cast<int>((num_positions_ + dim_ - 1) / dim_);

  pair_src_.reserve(std::min(num_positions_, static_cast<std::size_t>(permutations_) * dim_));
  pair_dst_.reserve(pair_src_.capacity());
  pos_offset_.assign(dim_ + 1, 0);

  // Build P independent permutations of the coordinates; global position
  // p*dim + perm_p(i) < num_positions participates in bin (position / 8).
  Rng rng(splitmix64(seed_ ^ 0xD3A7A0F1u));
  std::vector<std::uint32_t> perm(dim_);
  std::vector<std::vector<std::uint32_t>> per_index(dim_);
  for (int p = 0; p < permutations_; ++p) {
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = dim_; i > 1; --i) {  // Fisher-Yates
      std::swap(perm[i - 1], perm[rng.uniform_u64(i)]);
    }
    const std::size_t base = static_cast<std::size_t>(p) * dim_;
    for (std::size_t i = 0; i < dim_; ++i) {
      const std::size_t pos = base + perm[i];
      if (pos < num_positions_) {
        pair_src_.push_back(static_cast<std::uint32_t>(i));
        pair_dst_.push_back(static_cast<std::uint32_t>(pos));
        per_index[i].push_back(static_cast<std::uint32_t>(pos));
      }
    }
  }
  for (std::size_t i = 0; i < dim_; ++i) pos_offset_[i + 1] = pos_offset_[i] + per_index[i].size();
  pos_data_.resize(pos_offset_[dim_]);
  for (std::size_t i = 0; i < dim_; ++i) {
    std::copy(per_index[i].begin(), per_index[i].end(), pos_data_.begin() + pos_offset_[i]);
  }
}

void DwtaHash::winners_to_buckets(const float* binned, std::uint32_t* out) const {
  Scratch& s = scratch();
  s.winners.resize(num_bins_);
  kernels::wta_winners_f32(binned, num_bins_, s.winners.data());

  // Densify empty bins: borrow the winner of a pseudo-random non-empty bin.
  for (std::size_t b = 0; b < num_bins_; ++b) {
    if (binned[b * kBinSize + s.winners[b]] != -FLT_MAX) continue;
    std::uint8_t borrowed = 0;
    for (int attempt = 1; attempt <= kMaxDensificationAttempts; ++attempt) {
      const std::size_t alt = mix64(seed_ ^ 0x5EEDFACEull, b, static_cast<std::uint64_t>(attempt)) %
                              num_bins_;
      if (binned[alt * kBinSize + s.winners[alt]] != -FLT_MAX) {
        borrowed = s.winners[alt];
        break;
      }
    }
    s.winners[b] = borrowed;
  }

  for (int t = 0; t < l_; ++t) {
    std::uint32_t idx = 0;
    const std::size_t base = static_cast<std::size_t>(t) * k_;
    for (int j = 0; j < k_; ++j) {
      idx = (idx << kBitsPerHash) | s.winners[base + j];
    }
    out[t] = idx;
  }
}

void DwtaHash::hash_dense(const float* x, std::uint32_t* out) const {
  Scratch& s = scratch();
  s.binned.resize(num_positions_);
  kernels::fill_f32(s.binned.data(), num_positions_, -FLT_MAX);
  kernels::gather_scatter_f32(s.binned.data(), pair_dst_.data(), x, pair_src_.data(),
                              pair_src_.size());
  winners_to_buckets(s.binned.data(), out);
}

void DwtaHash::hash_sparse(const std::uint32_t* indices, const float* values, std::size_t nnz,
                           std::uint32_t* out) const {
  Scratch& s = scratch();
  s.binned.resize(num_positions_);
  kernels::fill_f32(s.binned.data(), num_positions_, -FLT_MAX);
  for (std::size_t n = 0; n < nnz; ++n) {
    const std::uint32_t i = indices[n];
    const float v = values[n];
    for (std::uint32_t p = pos_offset_[i]; p < pos_offset_[i + 1]; ++p) {
      s.binned[pos_data_[p]] = v;
    }
  }
  winners_to_buckets(s.binned.data(), out);
}

}  // namespace slide::lsh
