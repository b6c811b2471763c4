// Densified Winner-Take-All hashing (Chen & Shrivastava 2018; paper §4.3.3).
//
// WTA hashing permutes the coordinates and, for each bin of 8 consecutive
// permuted positions, emits the within-bin argmax (3 bits).  K such hashes
// concatenate into one table's bucket index (2^(3K) buckets — the SLIDE
// codebase's convention; the paper's "2^K buckets" counts hash values).
// "Densified" WTA handles sparse inputs whose bins may be empty: an empty
// bin borrows the winner of a pseudo-randomly chosen non-empty bin.
//
// Vectorization follows the paper exactly: the random coordinate->bin map is
// precomputed at construction, a query materializes the binned values with
// one gather/scatter pass, and the per-bin argmax runs through the AVX-512
// wta_winners kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/hash_function.h"
#include "util/aligned.h"

namespace slide::lsh {

class DwtaHash final : public HashFamily {
 public:
  static constexpr int kBinSize = 8;
  static constexpr int kBitsPerHash = 3;
  static constexpr int kMaxDensificationAttempts = 100;

  // k hashes per table, l tables.  Requires 1 <= k <= 10 (bucket index must
  // fit 30 bits), l >= 1 with l * 2^(3k) <= kMaxTotalBuckets, and dim >= 1.
  DwtaHash(std::size_t dim, int k, int l, std::uint64_t seed);

  std::size_t input_dim() const override { return dim_; }
  std::size_t num_tables() const override { return static_cast<std::size_t>(l_); }
  std::uint32_t bucket_range() const override { return 1u << (kBitsPerHash * k_); }

  void hash_dense(const float* x, std::uint32_t* out) const override;
  void hash_sparse(const std::uint32_t* indices, const float* values, std::size_t nnz,
                   std::uint32_t* out) const override;

  // Exposed for tests: total number of WTA bins (= k*l) and permutations.
  std::size_t num_bins() const { return num_bins_; }
  int permutations() const { return permutations_; }

 private:
  void winners_to_buckets(const float* binned, std::uint32_t* out) const;

  std::size_t dim_;
  int k_;
  int l_;
  std::uint64_t seed_;
  std::size_t num_bins_;       // k*l
  std::size_t num_positions_;  // num_bins * kBinSize
  int permutations_;

  // Dense fast path: binned[pair_dst_[i]] = x[pair_src_[i]] via one
  // gather/scatter kernel call.
  AlignedVector<std::uint32_t> pair_src_;
  AlignedVector<std::uint32_t> pair_dst_;

  // Sparse path: coordinate i occupies binned positions
  // pos_data_[pos_offset_[i] .. pos_offset_[i+1]).
  std::vector<std::uint32_t> pos_data_;
  std::vector<std::uint32_t> pos_offset_;
};

}  // namespace slide::lsh
