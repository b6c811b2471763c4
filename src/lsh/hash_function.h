// LSH family interface (paper Section 2 and 4.3.3).
//
// A hash family maps an input vector to one bucket index per hash table.
// SLIDE hashes two things with the same family: each neuron's weight vector
// (at table (re)build time) and each layer input (at query time), so both a
// dense and a sparse entry point are required.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace slide::lsh {

// The most buckets one layer's L tables may hold together.  LshTables
// zero-fills 16 bytes per bucket up front, so this caps a layer's tables
// at 2 GiB.  It admits the paper's widest shape (DWTA K = 6, L = 400:
// 2^18 buckets x 400 tables) and rejects a K and L that a small model file
// could declare to ask for terabytes.
inline constexpr std::size_t kMaxTotalBuckets = std::size_t{1} << 27;

// Throws std::invalid_argument when l tables of `bucket_range` buckets
// exceed kMaxTotalBuckets; a family calls it before it allocates anything.
inline void check_total_buckets(const char* family, std::size_t bucket_range, int l) {
  if (static_cast<std::size_t>(l) * bucket_range > kMaxTotalBuckets) {
    throw std::invalid_argument(std::string(family) + ": L x buckets per table (" +
                                std::to_string(l) + " x " + std::to_string(bucket_range) +
                                ") exceeds " + std::to_string(kMaxTotalBuckets));
  }
}

class HashFamily {
 public:
  virtual ~HashFamily() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t num_tables() const = 0;
  // Number of buckets per table; bucket indices are in [0, bucket_range()).
  virtual std::uint32_t bucket_range() const = 0;

  // Computes num_tables() bucket indices for a dense vector of input_dim()
  // elements.  Thread-safe: implementations keep scratch in thread_local
  // storage.
  virtual void hash_dense(const float* x, std::uint32_t* out) const = 0;

  // Same for a sparse vector given as (strictly increasing) index/value
  // pairs.  Missing coordinates are treated as absent, not as zero.
  virtual void hash_sparse(const std::uint32_t* indices, const float* values,
                           std::size_t nnz, std::uint32_t* out) const = 0;
};

}  // namespace slide::lsh
