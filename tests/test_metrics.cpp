#include "core/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "kernels/kernels.h"
#include "util/rng.h"

namespace slide {
namespace {

TEST(TopK, ReturnsDescendingScores) {
  const std::vector<float> scores = {0.1f, 5.0f, 3.0f, 4.0f, -1.0f, 2.0f};
  std::vector<std::uint32_t> out;
  topk_indices(scores.data(), scores.size(), 3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 3u);
  EXPECT_EQ(out[2], 2u);
}

TEST(TopK, KLargerThanNReturnsAllSorted) {
  const std::vector<float> scores = {1.0f, 3.0f, 2.0f};
  std::vector<std::uint32_t> out;
  topk_indices(scores.data(), scores.size(), 10, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 0u);
}

TEST(TopK, ZeroKOrEmptyInput) {
  const std::vector<float> scores = {1.0f};
  std::vector<std::uint32_t> out{9};
  topk_indices(scores.data(), 1, 0, out);
  EXPECT_TRUE(out.empty());
  topk_indices(nullptr, 0, 5, out);
  EXPECT_TRUE(out.empty());
}

TEST(TopK, TiesResolveToLowerIndex) {
  const std::vector<float> scores = {2.0f, 1.0f, 2.0f, 2.0f};
  std::vector<std::uint32_t> out;
  topk_indices(scores.data(), scores.size(), 3, out);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 3u);
}

TEST(TopK, MatchesFullSortOnRandomInput) {
  std::vector<float> scores;
  for (int i = 0; i < 500; ++i) scores.push_back(static_cast<float>((i * 37) % 101));
  std::vector<std::uint32_t> out;
  topk_indices(scores.data(), scores.size(), 20, out);

  std::vector<std::uint32_t> all(scores.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(all.begin(), all.end(), [&](std::uint32_t a, std::uint32_t b) {
    return scores[a] > scores[b];
  });
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(out[i], all[i]) << i;
}

// topk_indices is a running top-k whose threshold scan is a dispatched
// kernel.  On every tier it must return the first k ids of a stable sort
// by score descending (ties to the lower id), for k in {0, 1, 5, n - 1, n,
// n + 3}, over lengths around the vector widths and inputs drawn from a
// few values (so most scores tie), with -0 beside +0 and +-inf among them.
TEST(TopK, EqualsStableSortOnEveryTier) {
  const kernels::Isa ambient = kernels::active_isa();
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {-inf, -1.0f, -0.0f, 0.0f, 0.5f, 1.0f, 3.0f, inf};
  Rng rng(17);
  for (const kernels::Isa isa : kernels::available_isas()) {
    ASSERT_TRUE(kernels::set_isa(isa));
    for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 16u, 17u, 33u, 100u, 1000u}) {
      for (const std::size_t distinct : {1u, 2u, 3u, 8u}) {
        std::vector<float> scores(n);
        for (float& v : scores) v = pool[rng.uniform_u64(distinct) + (8 - distinct) / 2];
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
          return scores[a] > scores[b];
        });
        for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5}, n - 1, n,
                                    n + 3}) {
          std::vector<std::uint32_t> out;
          topk_indices(scores.data(), n, k, out);
          const std::vector<std::uint32_t> want(order.begin(),
                                                order.begin() + std::min(k, n));
          EXPECT_EQ(out, want) << kernels::isa_name(isa) << " n=" << n
                               << " distinct=" << distinct << " k=" << k;
        }
      }
    }
  }
  kernels::set_isa(ambient);
}

TEST(PrecisionAtK, ExactFractions) {
  const std::vector<std::uint32_t> topk = {1, 2, 3, 4};
  const std::vector<std::uint32_t> labels = {2, 4, 9};
  EXPECT_DOUBLE_EQ(precision_at_k(topk, labels), 0.5);
  EXPECT_DOUBLE_EQ(precision_at_k(std::span<const std::uint32_t>(topk.data(), 1),
                                  std::span<const std::uint32_t>(labels)),
                   0.0);
}

TEST(PrecisionAtK, EmptyInputs) {
  const std::vector<std::uint32_t> labels = {1};
  EXPECT_DOUBLE_EQ(precision_at_k({}, labels), 0.0);
  const std::vector<std::uint32_t> topk = {1};
  EXPECT_DOUBLE_EQ(precision_at_k(topk, {}), 0.0);
}

TEST(PrecisionAtK, PerfectScore) {
  const std::vector<std::uint32_t> topk = {5, 6};
  const std::vector<std::uint32_t> labels = {6, 5, 7};
  EXPECT_DOUBLE_EQ(precision_at_k(topk, labels), 1.0);
}

}  // namespace
}  // namespace slide
