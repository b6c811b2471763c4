// SimHash (signed random projections) — the hash family the paper uses for
// Text8 (K=9, L=50).
//
// Bit j of a table's bucket index is sign(<r_j, x>) for a Rademacher (+-1)
// vector r_j.  The +-1 entries are derived from a stateless mixer, so the
// family needs no stored projection matrix in principle; for small input
// dimensions (SLIDE hashes 128/200-dim hidden activations) the rows are
// materialized as float +-1 vectors once, which turns every bit into one
// vectorized dot product (dense input) or one gather sparse-dot (sparse
// input).
#pragma once

#include <cstdint>

#include "lsh/hash_function.h"
#include "util/aligned.h"

namespace slide::lsh {

class SimHash final : public HashFamily {
 public:
  // k bits per table, l tables.  Requires 1 <= k <= 30 and l >= 1 with
  // l * 2^k <= kMaxTotalBuckets.
  // Rows are materialized when dim * k * l floats fit `max_table_bytes`.
  SimHash(std::size_t dim, int k, int l, std::uint64_t seed,
          std::size_t max_table_bytes = 64ull << 20);

  std::size_t input_dim() const override { return dim_; }
  std::size_t num_tables() const override { return static_cast<std::size_t>(l_); }
  std::uint32_t bucket_range() const override { return 1u << k_; }

  void hash_dense(const float* x, std::uint32_t* out) const override;
  void hash_sparse(const std::uint32_t* indices, const float* values, std::size_t nnz,
                   std::uint32_t* out) const override;

  bool uses_materialized_rows() const { return !signs_.empty(); }

  // The +-1 entry of projection row `bit` at coordinate `i` (both paths use
  // this definition; exposed for the equivalence test).
  float sign_at(std::size_t bit, std::size_t i) const;

 private:
  std::size_t dim_;
  int k_;
  int l_;
  std::uint64_t seed_;
  std::size_t num_bits_;  // k*l
  AlignedVector<float> signs_;  // num_bits x dim row-major, or empty
};

}  // namespace slide::lsh
