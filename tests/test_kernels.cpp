// Backend-equivalence tests: every kernel, on every backend available on
// this host (scalar always; AVX2/AVX-512 when the CPU and build allow),
// across sizes that exercise full vector blocks, masked tails, and empty
// inputs for both the 8-lane and 16-lane widths.
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace slide::kernels {
namespace {

const std::vector<std::size_t> kSizes = {0, 1, 3, 8, 15, 16, 17, 31, 32, 33, 64, 100, 257};

std::vector<float> random_vec(std::size_t n, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = (rng.uniform_float() - 0.5f) * 2.0f * scale;
  return v;
}

// Unique random indices in [0, universe).
std::vector<std::uint32_t> random_indices(std::size_t n, std::size_t universe, Rng& rng) {
  std::vector<std::uint32_t> all(universe);
  std::iota(all.begin(), all.end(), 0u);
  for (std::size_t i = universe; i > 1; --i) {
    std::swap(all[i - 1], all[rng.uniform_u64(i)]);
  }
  all.resize(n);
  return all;
}

class KernelIsaTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    ambient_ = active_isa();  // may be the SLIDE_ISA-selected default
    if (!isa_available(GetParam())) {
      GTEST_SKIP() << isa_name(GetParam()) << " not available on this host";
    }
    ASSERT_TRUE(set_isa(GetParam()));
  }
  void TearDown() override { set_isa(ambient_); }
  Isa ambient_ = Isa::Scalar;
};

TEST_P(KernelIsaTest, DotMatchesDoubleReference) {
  Rng rng(1);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    double ref = 0;
    for (std::size_t i = 0; i < n; ++i) ref += static_cast<double>(a[i]) * b[i];
    const float got = dot_f32(a.data(), b.data(), n);
    EXPECT_NEAR(got, ref, std::max(1e-4, std::abs(ref) * 1e-5)) << "n=" << n;
  }
}

TEST_P(KernelIsaTest, SparseDotMatchesReference) {
  Rng rng(2);
  for (const std::size_t nnz : kSizes) {
    const std::size_t universe = std::max<std::size_t>(4 * nnz, 64);
    const auto idx = random_indices(nnz, universe, rng);
    const auto val = random_vec(nnz, rng);
    const auto w = random_vec(universe, rng);
    double ref = 0;
    for (std::size_t k = 0; k < nnz; ++k) ref += static_cast<double>(val[k]) * w[idx[k]];
    const float got = sparse_dot_f32(idx.data(), val.data(), nnz, w.data());
    EXPECT_NEAR(got, ref, std::max(1e-4, std::abs(ref) * 1e-5)) << "nnz=" << nnz;
  }
}

TEST_P(KernelIsaTest, AxpyMatchesReference) {
  Rng rng(3);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng);
    auto y = random_vec(n, rng);
    auto ref = y;
    const float alpha = 0.37f;
    for (std::size_t i = 0; i < n; ++i) ref[i] += alpha * x[i];
    axpy_f32(alpha, x.data(), y.data(), n);
    // FMA fuses the multiply-add into one rounding; with cancellation the
    // result can differ from the two-rounding reference by ~1e-7 absolute.
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], ref[i], 1e-5f) << "n=" << n;
  }
}

TEST_P(KernelIsaTest, ScatterAxpyMatchesReferenceAndTouchesOnlyTargets) {
  Rng rng(4);
  for (const std::size_t nnz : kSizes) {
    const std::size_t universe = std::max<std::size_t>(4 * nnz, 64);
    const auto idx = random_indices(nnz, universe, rng);
    const auto val = random_vec(nnz, rng);
    auto w = random_vec(universe, rng);
    auto ref = w;
    const float alpha = -1.25f;
    for (std::size_t k = 0; k < nnz; ++k) ref[idx[k]] += alpha * val[k];
    scatter_axpy_f32(alpha, idx.data(), val.data(), nnz, w.data());
    for (std::size_t i = 0; i < universe; ++i) EXPECT_NEAR(w[i], ref[i], 1e-5f);
  }
}

TEST_P(KernelIsaTest, GatherMatchesReference) {
  Rng rng(5);
  for (const std::size_t n : kSizes) {
    const std::size_t universe = std::max<std::size_t>(2 * n, 32);
    const auto src = random_vec(universe, rng);
    std::vector<std::uint32_t> idx(n);
    for (auto& i : idx) i = static_cast<std::uint32_t>(rng.uniform_u64(universe));
    std::vector<float> dst(n, -7.0f);
    gather_f32(dst.data(), src.data(), idx.data(), n);
    for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(dst[k], src[idx[k]]);
  }
}

TEST_P(KernelIsaTest, GatherScatterMovesValues) {
  Rng rng(6);
  for (const std::size_t n : kSizes) {
    const std::size_t universe = std::max<std::size_t>(2 * n, 32);
    const auto src = random_vec(universe, rng);
    const auto dst_idx = random_indices(n, universe, rng);
    std::vector<std::uint32_t> src_idx(n);
    for (auto& i : src_idx) i = static_cast<std::uint32_t>(rng.uniform_u64(universe));
    std::vector<float> dst(universe, 0.0f);
    gather_scatter_f32(dst.data(), dst_idx.data(), src.data(), src_idx.data(), n);
    for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(dst[dst_idx[k]], src[src_idx[k]]);
  }
}

TEST_P(KernelIsaTest, ScaleAndFillAndRelu) {
  Rng rng(7);
  for (const std::size_t n : kSizes) {
    auto x = random_vec(n, rng);
    auto ref = x;
    scale_f32(2.5f, x.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(x[i], ref[i] * 2.5f);

    fill_f32(x.data(), n, -3.25f);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], -3.25f);

    x = random_vec(n, rng);
    ref = x;
    relu_f32(x.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], std::max(ref[i], 0.0f));
  }
}

TEST_P(KernelIsaTest, ReduceSumAndMax) {
  Rng rng(8);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng, 10.0f);
    double ref_sum = 0;
    for (const float v : x) ref_sum += v;
    EXPECT_NEAR(reduce_sum_f32(x.data(), n), ref_sum, std::max(1e-3, std::abs(ref_sum) * 1e-5));
    if (n > 0) {
      const float ref_max = *std::max_element(x.begin(), x.end());
      EXPECT_EQ(reduce_max_f32(x.data(), n), ref_max);
    }
  }
}

TEST_P(KernelIsaTest, SoftmaxSumsToOneAndMatchesScalar) {
  Rng rng(10);
  for (const std::size_t n : kSizes) {
    if (n == 0) continue;
    auto x = random_vec(n, rng, 5.0f);
    auto ref = x;
    // scalar reference with doubles
    double m = ref[0];
    for (const float v : ref) m = std::max(m, static_cast<double>(v));
    double sum = 0;
    std::vector<double> e(n);
    for (std::size_t i = 0; i < n; ++i) {
      e[i] = std::exp(static_cast<double>(ref[i]) - m);
      sum += e[i];
    }
    softmax_f32(x.data(), n);
    float total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], e[i] / sum, 2e-5) << "n=" << n << " i=" << i;
      total += x[i];
    }
    EXPECT_NEAR(total, 1.0f, 1e-4);
  }
}

TEST_P(KernelIsaTest, SoftmaxHandlesLargeMagnitudes) {
  std::vector<float> x = {1000.0f, 1000.0f, -1000.0f};
  softmax_f32(x.data(), x.size());
  EXPECT_NEAR(x[0], 0.5f, 1e-5);
  EXPECT_NEAR(x[1], 0.5f, 1e-5);
  EXPECT_NEAR(x[2], 0.0f, 1e-6);
}

TEST_P(KernelIsaTest, WtaWinnersPicksBinArgmax) {
  Rng rng(11);
  for (const std::size_t bins : {1u, 2u, 5u, 16u, 33u}) {
    std::vector<float> values(bins * 8);
    for (auto& v : values) v = rng.uniform_float() < 0.3f ? -FLT_MAX : rng.normal_float();
    std::vector<std::uint8_t> winners(bins, 255);
    wta_winners_f32(values.data(), bins, winners.data());
    for (std::size_t b = 0; b < bins; ++b) {
      std::uint8_t ref = 0;
      for (std::uint8_t s = 1; s < 8; ++s) {
        if (values[b * 8 + s] > values[b * 8 + ref]) ref = s;
      }
      EXPECT_EQ(winners[b], ref) << "bin=" << b;
    }
  }
}

TEST_P(KernelIsaTest, WtaWinnersTieBreaksLow) {
  std::vector<float> values(8, 3.0f);
  std::uint8_t w = 99;
  wta_winners_f32(values.data(), 1, &w);
  EXPECT_EQ(w, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, KernelIsaTest, ::testing::ValuesIn(available_isas()),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(isa_name(info.param));
                         });

TEST(KernelDispatch, SetIsaSwitchesBackend) {
  const Isa ambient = active_isa();
  for (const Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    if (isa_available(isa)) {
      ASSERT_TRUE(set_isa(isa));
      EXPECT_EQ(active_isa(), isa);
      EXPECT_STREQ(active_isa_name(), isa_name(isa));
    } else {
      ASSERT_TRUE(set_isa(Isa::Scalar));
      EXPECT_FALSE(set_isa(isa)) << isa_name(isa);
      EXPECT_EQ(active_isa(), Isa::Scalar) << "failed set_isa must not switch";
    }
  }
  set_isa(ambient);
}

TEST(KernelDispatch, AvailableIsasIsScalarFirstAndPriorityOrdered) {
  const std::vector<Isa> isas = available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::Scalar);
  for (std::size_t i = 0; i < isas.size(); ++i) {
    EXPECT_TRUE(isa_available(isas[i]));
    if (i > 0) EXPECT_LT(static_cast<int>(isas[i - 1]), static_cast<int>(isas[i]));
  }
  EXPECT_EQ(isas.back(), preferred_isa());
}

TEST(KernelDispatch, ParseIsaRoundTrips) {
  for (const Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    Isa parsed = Isa::Scalar;
    ASSERT_TRUE(parse_isa(isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed = Isa::Avx512;
  EXPECT_FALSE(parse_isa("avx1024", &parsed));
  EXPECT_FALSE(parse_isa("", &parsed));
  EXPECT_EQ(parsed, Isa::Avx512) << "failed parse must not write";
}

TEST(KernelDispatch, UnalignedPointersAreAccepted) {
  // Kernels use unaligned loads; feeding deliberately offset pointers must
  // still give correct results on every backend.
  const Isa ambient = active_isa();
  std::vector<float> raw(130, 0.0f);
  float* a = raw.data() + 1;
  for (int i = 0; i < 64; ++i) a[i] = static_cast<float>(i);
  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(set_isa(isa));
    EXPECT_FLOAT_EQ(reduce_sum_f32(a, 64), 64.0f * 63.0f / 2.0f) << isa_name(isa);
  }
  set_isa(ambient);
}

}  // namespace
}  // namespace slide::kernels
