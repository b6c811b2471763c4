#include "lsh/dwta.h"

#include <gtest/gtest.h>

#include <vector>

#include "kernels/kernels.h"
#include "util/rng.h"

namespace slide::lsh {
namespace {

std::vector<float> random_positive(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = 0.1f + rng.uniform_float();
  return v;
}

// Adds noise to a fraction of coordinates; similarity controlled by frac.
std::vector<float> perturb(const std::vector<float>& base, double frac, Rng& rng) {
  auto out = base;
  for (auto& x : out) {
    if (rng.uniform_double() < frac) x = 0.1f + rng.uniform_float();
  }
  return out;
}

double collision_rate(const DwtaHash& h, const std::vector<float>& a,
                      const std::vector<float>& b) {
  std::vector<std::uint32_t> ha(h.num_tables()), hb(h.num_tables());
  h.hash_dense(a.data(), ha.data());
  h.hash_dense(b.data(), hb.data());
  std::size_t same = 0;
  for (std::size_t t = 0; t < h.num_tables(); ++t) same += (ha[t] == hb[t]);
  return static_cast<double>(same) / static_cast<double>(h.num_tables());
}

TEST(Dwta, ValidatesConstructorArguments) {
  EXPECT_THROW(DwtaHash(0, 2, 3, 1), std::invalid_argument);
  EXPECT_THROW(DwtaHash(16, 0, 3, 1), std::invalid_argument);
  EXPECT_THROW(DwtaHash(16, 11, 3, 1), std::invalid_argument);
  EXPECT_THROW(DwtaHash(16, 2, 0, 1), std::invalid_argument);
}

// L tables of 2^(3K) buckets may hold kMaxTotalBuckets (2^27) in all: the
// paper's K = 6, L = 400 fits, as does K = 9 with one table; K = 10 (2^30
// buckets per table) never does, and K = 6 stops at L = 512.
TEST(Dwta, RejectsTablesPastTheBucketBudget) {
  EXPECT_NO_THROW(DwtaHash(128, 6, 400, 1));
  EXPECT_NO_THROW(DwtaHash(16, 6, 512, 1));
  EXPECT_NO_THROW(DwtaHash(16, 9, 1, 1));
  EXPECT_THROW(DwtaHash(16, 6, 513, 1), std::invalid_argument);
  EXPECT_THROW(DwtaHash(16, 9, 2, 1), std::invalid_argument);
  EXPECT_THROW(DwtaHash(16, 10, 1, 1), std::invalid_argument);
  EXPECT_THROW(DwtaHash(16, 10, 1 << 30, 1), std::invalid_argument);
}

TEST(Dwta, GeometryIsConsistent) {
  const DwtaHash h(128, 6, 50, 7);
  EXPECT_EQ(h.num_tables(), 50u);
  EXPECT_EQ(h.bucket_range(), 1u << 18);
  EXPECT_EQ(h.num_bins(), 300u);
  // 300 bins * 8 slots = 2400 positions over 128 dims -> ceil = 19 perms.
  EXPECT_EQ(h.permutations(), 19);
}

TEST(Dwta, BucketIndicesAreInRange) {
  Rng rng(3);
  const DwtaHash h(64, 4, 20, 11);
  std::vector<std::uint32_t> out(h.num_tables());
  for (int i = 0; i < 50; ++i) {
    const auto x = random_positive(64, rng);
    h.hash_dense(x.data(), out.data());
    for (const auto b : out) EXPECT_LT(b, h.bucket_range());
  }
}

TEST(Dwta, DeterministicAcrossCalls) {
  Rng rng(5);
  const DwtaHash h(100, 5, 10, 13);
  const auto x = random_positive(100, rng);
  std::vector<std::uint32_t> a(h.num_tables()), b(h.num_tables());
  h.hash_dense(x.data(), a.data());
  h.hash_dense(x.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(Dwta, DifferentSeedsGiveDifferentFamilies) {
  Rng rng(7);
  const DwtaHash h1(100, 5, 10, 1);
  const DwtaHash h2(100, 5, 10, 2);
  const auto x = random_positive(100, rng);
  std::vector<std::uint32_t> a(10), b(10);
  h1.hash_dense(x.data(), a.data());
  h2.hash_dense(x.data(), b.data());
  EXPECT_NE(a, b);
}

TEST(Dwta, ScaleInvariance) {
  // WTA depends only on the argmax within bins, so positive scaling must not
  // change any hash.
  Rng rng(9);
  const DwtaHash h(80, 4, 25, 17);
  const auto x = random_positive(80, rng);
  auto scaled = x;
  for (auto& v : scaled) v *= 42.0f;
  std::vector<std::uint32_t> a(25), b(25);
  h.hash_dense(x.data(), a.data());
  h.hash_dense(scaled.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(Dwta, DenseAndSparseAgreeOnFullySpecifiedVector) {
  Rng rng(11);
  const std::size_t dim = 96;
  const DwtaHash h(dim, 4, 16, 19);
  const auto x = random_positive(dim, rng);  // all positive => no empty bins
  std::vector<std::uint32_t> idx(dim);
  for (std::size_t i = 0; i < dim; ++i) idx[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> dense_out(16), sparse_out(16);
  h.hash_dense(x.data(), dense_out.data());
  h.hash_sparse(idx.data(), x.data(), dim, sparse_out.data());
  EXPECT_EQ(dense_out, sparse_out);
}

TEST(Dwta, SparseInputWithFewNonZerosDensifies) {
  const std::size_t dim = 1000;
  const DwtaHash h(dim, 6, 10, 23);
  const std::uint32_t idx[] = {3, 500, 999};
  const float val[] = {1.0f, 2.0f, 3.0f};
  std::vector<std::uint32_t> out(10, ~0u);
  h.hash_sparse(idx, val, 3, out.data());
  for (const auto b : out) EXPECT_LT(b, h.bucket_range());
}

TEST(Dwta, EmptyInputProducesValidBuckets) {
  const DwtaHash h(50, 3, 5, 29);
  std::vector<std::uint32_t> out(5, ~0u);
  h.hash_sparse(nullptr, nullptr, 0, out.data());
  for (const auto b : out) EXPECT_LT(b, h.bucket_range());
}

TEST(Dwta, CollisionProbabilityIncreasesWithSimilarity) {
  Rng rng(31);
  const std::size_t dim = 128;
  const DwtaHash h(dim, 2, 200, 37);  // many short tables: good statistics
  const auto base = random_positive(dim, rng);

  double rates[3];
  const double fracs[3] = {0.05, 0.4, 0.95};
  for (int i = 0; i < 3; ++i) {
    double sum = 0;
    for (int rep = 0; rep < 10; ++rep) {
      sum += collision_rate(h, base, perturb(base, fracs[i], rng));
    }
    rates[i] = sum / 10;
  }
  EXPECT_GT(rates[0], rates[1]);
  EXPECT_GT(rates[1], rates[2]);
  EXPECT_GT(rates[0], 0.5);  // 5% perturbation: mostly identical hashes
}

TEST(Dwta, IdenticalVectorsAlwaysCollide) {
  Rng rng(41);
  const DwtaHash h(64, 6, 30, 43);
  const auto x = random_positive(64, rng);
  EXPECT_DOUBLE_EQ(collision_rate(h, x, x), 1.0);
}

TEST(Dwta, BackendsAgree) {
  // DWTA winner extraction must be bit-identical across every backend: any
  // tie-rule divergence would silently change which buckets neurons land in.
  Rng rng(47);
  const kernels::Isa ambient = kernels::active_isa();
  const DwtaHash h(128, 6, 50, 53);
  const auto x = random_positive(128, rng);
  std::vector<std::uint32_t> ref(50);
  ASSERT_TRUE(kernels::set_isa(kernels::Isa::Scalar));
  h.hash_dense(x.data(), ref.data());
  for (const kernels::Isa isa : kernels::available_isas()) {
    std::vector<std::uint32_t> got(50);
    ASSERT_TRUE(kernels::set_isa(isa));
    h.hash_dense(x.data(), got.data());
    EXPECT_EQ(got, ref) << "isa=" << kernels::isa_name(isa);
  }
  kernels::set_isa(ambient);
}

}  // namespace
}  // namespace slide::lsh
