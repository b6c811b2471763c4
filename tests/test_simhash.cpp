#include "lsh/simhash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace slide::lsh {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal_float();
  return v;
}

double bit_agreement(const SimHash& h, const std::vector<float>& a,
                     const std::vector<float>& b) {
  std::vector<std::uint32_t> ha(h.num_tables()), hb(h.num_tables());
  h.hash_dense(a.data(), ha.data());
  h.hash_dense(b.data(), hb.data());
  // Count matching bits across all tables.
  std::size_t same = 0, total = 0;
  const int k = static_cast<int>(std::log2(h.bucket_range()));
  for (std::size_t t = 0; t < h.num_tables(); ++t) {
    for (int j = 0; j < k; ++j) {
      same += ((ha[t] >> j) & 1u) == ((hb[t] >> j) & 1u);
      ++total;
    }
  }
  return static_cast<double>(same) / static_cast<double>(total);
}

TEST(SimHash, ValidatesConstructorArguments) {
  EXPECT_THROW(SimHash(0, 4, 5, 1), std::invalid_argument);
  EXPECT_THROW(SimHash(16, 0, 5, 1), std::invalid_argument);
  EXPECT_THROW(SimHash(16, 31, 5, 1), std::invalid_argument);
  EXPECT_THROW(SimHash(16, 4, 0, 1), std::invalid_argument);
}

// L tables of 2^K buckets may hold kMaxTotalBuckets (2^27) in all.
TEST(SimHash, RejectsTablesPastTheBucketBudget) {
  EXPECT_NO_THROW(SimHash(16, 20, 128, 1));
  EXPECT_NO_THROW(SimHash(16, 27, 1, 1));
  EXPECT_THROW(SimHash(16, 20, 129, 1), std::invalid_argument);
  EXPECT_THROW(SimHash(16, 28, 1, 1), std::invalid_argument);
  EXPECT_THROW(SimHash(16, 30, 1 << 30, 1), std::invalid_argument);
}

TEST(SimHash, BucketRangeIsPowerOfTwoOfK) {
  const SimHash h(64, 9, 50, 3);
  EXPECT_EQ(h.bucket_range(), 512u);
  EXPECT_EQ(h.num_tables(), 50u);
}

TEST(SimHash, BucketIndicesAreInRange) {
  Rng rng(5);
  const SimHash h(100, 7, 20, 7);
  std::vector<std::uint32_t> out(20);
  for (int i = 0; i < 50; ++i) {
    const auto x = random_vec(100, rng);
    h.hash_dense(x.data(), out.data());
    for (const auto b : out) EXPECT_LT(b, 128u);
  }
}

TEST(SimHash, DenseAndSparseAgree) {
  Rng rng(11);
  const std::size_t dim = 200;
  const SimHash h(dim, 9, 50, 13);
  const auto x = random_vec(dim, rng);

  // Sparse representation of the same vector: all non-zero coordinates.
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  for (std::size_t i = 0; i < dim; ++i) {
    if (x[i] != 0.0f) {
      idx.push_back(static_cast<std::uint32_t>(i));
      val.push_back(x[i]);
    }
  }
  std::vector<std::uint32_t> dense_out(50), sparse_out(50);
  h.hash_dense(x.data(), dense_out.data());
  h.hash_sparse(idx.data(), val.data(), idx.size(), sparse_out.data());
  EXPECT_EQ(dense_out, sparse_out);
}

TEST(SimHash, MaterializedAndStatelessPathsAgree) {
  Rng rng(17);
  const std::size_t dim = 150;
  const SimHash big(dim, 6, 10, 19);                 // materialized rows
  const SimHash tiny(dim, 6, 10, 19, /*max_table_bytes=*/0);  // stateless
  ASSERT_TRUE(big.uses_materialized_rows());
  ASSERT_FALSE(tiny.uses_materialized_rows());

  const auto x = random_vec(dim, rng);
  std::vector<std::uint32_t> a(10), b(10);
  big.hash_dense(x.data(), a.data());
  tiny.hash_dense(x.data(), b.data());
  EXPECT_EQ(a, b);

  std::vector<std::uint32_t> idx(dim);
  for (std::size_t i = 0; i < dim; ++i) idx[i] = static_cast<std::uint32_t>(i);
  big.hash_sparse(idx.data(), x.data(), dim, a.data());
  tiny.hash_sparse(idx.data(), x.data(), dim, b.data());
  EXPECT_EQ(a, b);
}

TEST(SimHash, SignInvariance) {
  // SRP bits depend on sign(<r, x>): scaling by a positive constant never
  // changes a bit.
  Rng rng(23);
  const SimHash h(80, 8, 25, 29);
  const auto x = random_vec(80, rng);
  auto scaled = x;
  for (auto& v : scaled) v *= 7.5f;
  std::vector<std::uint32_t> a(25), b(25);
  h.hash_dense(x.data(), a.data());
  h.hash_dense(scaled.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(SimHash, OppositeVectorsFlipAllDecidedBits) {
  Rng rng(31);
  const SimHash h(60, 8, 25, 37);
  const auto x = random_vec(60, rng);
  auto neg = x;
  for (auto& v : neg) v = -v;
  // sign(<r,-x>) = -sign(<r,x>): agreement should be ~0 (ties break to 0 on
  // both, but exact zeros are measure-zero with random data).
  EXPECT_LT(bit_agreement(h, x, neg), 0.05);
}

TEST(SimHash, BitAgreementTracksCosineSimilarity) {
  Rng rng(41);
  const std::size_t dim = 100;
  const SimHash h(dim, 4, 100, 43);
  const auto base = random_vec(dim, rng);

  // Mix base with an independent vector at increasing noise levels.
  double prev_agreement = 1.0;
  for (const double noise : {0.1, 0.5, 2.0}) {
    auto other = base;
    const auto n = random_vec(dim, rng);
    for (std::size_t i = 0; i < dim; ++i) {
      other[i] += static_cast<float>(noise) * n[i];
    }
    const double agreement = bit_agreement(h, base, other);
    EXPECT_LT(agreement, prev_agreement + 0.05);
    prev_agreement = agreement;
  }
  EXPECT_GT(bit_agreement(h, base, base), 0.999);
}

TEST(SimHash, SignAtIsConsistentWithHashes) {
  // One-hot input: bit j of the hash equals sign_at(bit, i) > 0.
  const std::size_t dim = 32;
  const SimHash h(dim, 5, 8, 47);
  std::vector<float> x(dim, 0.0f);
  x[17] = 1.0f;
  std::vector<std::uint32_t> out(8);
  h.hash_dense(x.data(), out.data());
  for (std::size_t t = 0; t < 8; ++t) {
    for (int j = 0; j < 5; ++j) {
      const std::size_t bit = t * 5 + static_cast<std::size_t>(j);
      const bool expected = h.sign_at(bit, 17) > 0.0f;
      const bool got = ((out[t] >> (4 - j)) & 1u) != 0;
      EXPECT_EQ(got, expected) << "table " << t << " bit " << j;
    }
  }
}

}  // namespace
}  // namespace slide::lsh
