// Backend-parity tests: every KernelTable entry, on every vector backend
// available on this host, cross-checked against the scalar reference on the
// same inputs.  Exact equality where the kernel is a pure data movement or
// per-lane bit operation (fill, relu, gather, conversions, threshold scan,
// WTA);
// tolerance-based where vector reductions legitimately reassociate the
// summation order (dots, reductions, softmax, ADAM).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "kernels/kernels.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace slide::kernels {
namespace {

// Full vector blocks, 8-lane and 16-lane tails, and empty inputs.
const std::vector<std::size_t> kSizes = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257};

std::vector<float> random_vec(std::size_t n, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = (rng.uniform_float() - 0.5f) * 2.0f * scale;
  return v;
}

std::vector<std::uint32_t> unique_indices(std::size_t n, std::size_t universe, Rng& rng) {
  std::vector<std::uint32_t> all(universe);
  std::iota(all.begin(), all.end(), 0u);
  for (std::size_t i = universe; i > 1; --i) {
    std::swap(all[i - 1], all[rng.uniform_u64(i)]);
  }
  all.resize(n);
  return all;
}

// Runs `fn` under the scalar backend, then under the backend-under-test, and
// restores the ambient backend afterwards.
template <class Fn>
void on_both(Isa isa, const Fn& fn) {
  const Isa ambient = active_isa();
  ASSERT_TRUE(set_isa(Isa::Scalar));
  fn(/*reference=*/true);
  ASSERT_TRUE(set_isa(isa));
  fn(/*reference=*/false);
  set_isa(ambient);
}

float rel_tol(float ref) { return 1e-4f + std::abs(ref) * 1e-5f; }

class BackendParityTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    ambient_ = active_isa();  // may be the SLIDE_ISA-selected default
    if (GetParam() == Isa::Scalar) GTEST_SKIP() << "scalar is the reference";
    if (!isa_available(GetParam())) GTEST_SKIP();
  }
  void TearDown() override { set_isa(ambient_); }
  Isa ambient_ = Isa::Scalar;
};

TEST_P(BackendParityTest, DotFamily) {
  Rng rng(101);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    std::vector<bf16> a16(n), b16(n);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    fp32_to_bf16(a.data(), a16.data(), n);
    fp32_to_bf16(b.data(), b16.data(), n);
    const float ref_ff = dot_f32(a.data(), b.data(), n);
    const float ref_bf = dot_bf16_f32(a16.data(), b.data(), n);
    const float ref_bb = dot_bf16_bf16(a16.data(), b16.data(), n);
    ASSERT_TRUE(set_isa(GetParam()));
    EXPECT_NEAR(dot_f32(a.data(), b.data(), n), ref_ff, rel_tol(ref_ff)) << "n=" << n;
    EXPECT_NEAR(dot_bf16_f32(a16.data(), b.data(), n), ref_bf, rel_tol(ref_bf)) << "n=" << n;
    EXPECT_NEAR(dot_bf16_bf16(a16.data(), b16.data(), n), ref_bb, rel_tol(ref_bb))
        << "n=" << n;
  }
}

TEST_P(BackendParityTest, SparseDots) {
  Rng rng(102);
  for (const std::size_t nnz : kSizes) {
    const std::size_t universe = std::max<std::size_t>(4 * nnz, 64);
    const auto idx = unique_indices(nnz, universe, rng);
    const auto val = random_vec(nnz, rng);
    const auto w = random_vec(universe, rng);
    std::vector<bf16> w16(universe);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    fp32_to_bf16(w.data(), w16.data(), universe);
    const float ref_f = sparse_dot_f32(idx.data(), val.data(), nnz, w.data());
    const float ref_b = sparse_dot_bf16(idx.data(), val.data(), nnz, w16.data());
    ASSERT_TRUE(set_isa(GetParam()));
    EXPECT_NEAR(sparse_dot_f32(idx.data(), val.data(), nnz, w.data()), ref_f, rel_tol(ref_f))
        << "nnz=" << nnz;
    EXPECT_NEAR(sparse_dot_bf16(idx.data(), val.data(), nnz, w16.data()), ref_b,
                rel_tol(ref_b))
        << "nnz=" << nnz;
  }
}

TEST_P(BackendParityTest, AxpyFamily) {
  Rng rng(103);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng);
    std::vector<bf16> x16(n);
    const auto y0 = random_vec(n, rng);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    fp32_to_bf16(x.data(), x16.data(), n);
    auto ref_f = y0;
    auto ref_b = y0;
    axpy_f32(0.77f, x.data(), ref_f.data(), n);
    axpy_bf16(-0.41f, x16.data(), ref_b.data(), n);
    ASSERT_TRUE(set_isa(GetParam()));
    auto got_f = y0;
    auto got_b = y0;
    axpy_f32(0.77f, x.data(), got_f.data(), n);
    axpy_bf16(-0.41f, x16.data(), got_b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got_f[i], ref_f[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_NEAR(got_b[i], ref_b[i], 1e-5f) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BackendParityTest, ScatterAxpy) {
  Rng rng(104);
  for (const std::size_t nnz : kSizes) {
    const std::size_t universe = std::max<std::size_t>(4 * nnz, 64);
    const auto idx = unique_indices(nnz, universe, rng);
    const auto val = random_vec(nnz, rng);
    const auto w0 = random_vec(universe, rng);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    auto ref = w0;
    scatter_axpy_f32(-1.25f, idx.data(), val.data(), nnz, ref.data());
    ASSERT_TRUE(set_isa(GetParam()));
    auto got = w0;
    scatter_axpy_f32(-1.25f, idx.data(), val.data(), nnz, got.data());
    for (std::size_t i = 0; i < universe; ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-5f) << "nnz=" << nnz << " i=" << i;
    }
  }
}

TEST_P(BackendParityTest, SparseAxpyRows) {
  Rng rng(106);
  const std::size_t features = 200;
  for (const std::size_t n : kSizes) {
    for (const std::size_t nnz : {0u, 1u, 9u, 75u}) {
      const auto w = random_vec(features * n, rng);
      const auto idx = unique_indices(nnz, features, rng);
      const auto val = random_vec(nnz, rng);
      const auto out0 = random_vec(n, rng);
      std::vector<bf16> w16(w.size());
      ASSERT_TRUE(set_isa(Isa::Scalar));
      fp32_to_bf16(w.data(), w16.data(), w.size());
      auto ref_f = out0;
      auto ref_b = out0;
      sparse_axpy_rows_f32(idx.data(), val.data(), nnz, w.data(), n, ref_f.data(), n);
      sparse_axpy_rows_bf16(idx.data(), val.data(), nnz, w16.data(), n, ref_b.data(), n);
      ASSERT_TRUE(set_isa(GetParam()));
      auto got_f = out0;
      auto got_b = out0;
      sparse_axpy_rows_f32(idx.data(), val.data(), nnz, w.data(), n, got_f.data(), n);
      sparse_axpy_rows_bf16(idx.data(), val.data(), nnz, w16.data(), n, got_b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got_f[i], ref_f[i], rel_tol(ref_f[i])) << "n=" << n << " nnz=" << nnz;
        EXPECT_NEAR(got_b[i], ref_b[i], rel_tol(ref_b[i])) << "n=" << n << " nnz=" << nnz;
      }
    }
  }
}

// Bitwise equality: EXPECT_EQ on floats would take -0.0f for +0.0f.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](float x, float y) {
    return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
  });
}

// backward_rows_* must equal, bit for bit, the same backend's per-row pair
// axpy_f32(g, x, gradient row) then axpy_{f32,bf16}(g, weight row, xgrad),
// scalar included.  The row with g == 0 holds -0.0f in its gradient row: a
// kernel that swept it anyway would turn that into +0.0f.
TEST(BackendParity, BackwardRows) {
  const Isa ambient = active_isa();
  Rng rng(109);
  const std::size_t arena_rows = 12;
  const std::vector<std::uint32_t> list = {7, 2, 9, 0, 11, 4};
  const std::vector<float> g = {0.8f, -0.3f, 0.0f, 1.7f, -1.1f, 0.45f};
  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(set_isa(isa));
    for (const std::size_t n : kSizes) {
      const std::size_t ld = n + 5;
      const auto w = random_vec(arena_rows * ld, rng);
      std::vector<bf16> w16(w.size());
      fp32_to_bf16(w.data(), w16.data(), w.size());
      const auto x = random_vec(n, rng);
      const auto xgrad0 = random_vec(n, rng);
      for (const bool explicit_rows : {true, false}) {
        const std::uint32_t* rows = explicit_rows ? list.data() : nullptr;
        const auto row_of = [&](std::size_t r) { return explicit_rows ? list[r] : r; };
        const std::size_t zero_row = row_of(2) * ld;  // g[2] == 0
        auto gw0 = random_vec(arena_rows * ld, rng);
        std::fill(gw0.begin() + zero_row, gw0.begin() + zero_row + n, -0.0f);
        for (const bool bf16_w : {false, true}) {
          auto ref_gw = gw0, got_gw = gw0;
          auto ref_xgrad = xgrad0, got_xgrad = xgrad0;
          for (std::size_t r = 0; r < list.size(); ++r) {
            if (g[r] == 0.0f) continue;
            const std::size_t off = row_of(r) * ld;
            axpy_f32(g[r], x.data(), ref_gw.data() + off, n);
            if (bf16_w) {
              axpy_bf16(g[r], w16.data() + off, ref_xgrad.data(), n);
            } else {
              axpy_f32(g[r], w.data() + off, ref_xgrad.data(), n);
            }
          }
          if (bf16_w) {
            backward_rows_bf16(w16.data(), got_gw.data(), ld, rows, g.data(), list.size(),
                               x.data(), got_xgrad.data(), n);
          } else {
            backward_rows_f32(w.data(), got_gw.data(), ld, rows, g.data(), list.size(),
                              x.data(), got_xgrad.data(), n);
          }
          const std::string where = std::string(isa_name(isa)) + " n=" + std::to_string(n) +
                                    (bf16_w ? " bf16" : " f32") +
                                    (explicit_rows ? " rows" : " nullptr");
          EXPECT_TRUE(same_bits(got_gw, ref_gw)) << where;
          EXPECT_TRUE(same_bits(got_xgrad, ref_xgrad)) << where;
          bool zero_row_kept = true;
          for (std::size_t j = 0; j < n; ++j) {
            zero_row_kept &= std::signbit(got_gw[zero_row + j]) && got_gw[zero_row + j] == 0.0f;
          }
          EXPECT_TRUE(zero_row_kept) << where;
        }
      }
    }
  }
  set_isa(ambient);
}

TEST_P(BackendParityTest, ElementwiseExact) {
  Rng rng(105);
  for (const std::size_t n : kSizes) {
    const auto x0 = random_vec(n, rng);
    auto ref = x0;
    auto got = x0;
    on_both(GetParam(), [&](bool reference) {
      auto& x = reference ? ref : got;
      scale_f32(2.5f, x.data(), n);
      relu_f32(x.data(), n);
      fill_f32(x.data(), n / 2, -3.25f);  // partial fill: rest keeps relu output
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], ref[i]) << "n=" << n << " i=" << i;
  }
}

TEST_P(BackendParityTest, Reductions) {
  Rng rng(106);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng, 10.0f);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    const float ref_sum = reduce_sum_f32(x.data(), n);
    const float ref_max = n > 0 ? reduce_max_f32(x.data(), n) : 0.0f;
    ASSERT_TRUE(set_isa(GetParam()));
    EXPECT_NEAR(reduce_sum_f32(x.data(), n), ref_sum, 1e-3f + std::abs(ref_sum) * 1e-5f);
    if (n > 0) EXPECT_EQ(reduce_max_f32(x.data(), n), ref_max) << "n=" << n;
  }
}

// first_above_f32 returns the scalar loop's index on every tier: lengths 0
// to 4W+3 (W = 16, the widest tier) plus a long one, starts 0-3 floats
// past a 64-byte boundary, one hit planted at every position (or none) in
// a background at or below 0.5 that mixes in +-0, -inf and NaN, or in one
// below every negative threshold (so a vector tail's zero-filled lanes
// would show as hits), hits of 1, 2, +inf or NaN, and thresholds equal to,
// between and outside those values, +-0, +-inf and NaN among them.
TEST_P(BackendParityTest, FirstAboveExact) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> backgrounds[] = {{-1.0f, -0.5f, -0.0f, 0.0f, 0.5f, -inf, nan},
                                            {-4.0f, -inf, nan}};
  const float high[] = {1.0f, 2.0f, inf, nan};
  const float thresholds[] = {-inf, -2.0f, -1.0f, -0.75f, -0.0f, 0.0f, 0.25f, 0.5f,
                              0.75f, 1.0f, 1.5f, 2.0f, 3.0f, inf, nan};
  std::vector<std::size_t> lengths(4 * 16 + 4);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(1000);
  Rng rng(119);
  AlignedVector<float> buf(1000 + 3);
  for (std::size_t n_i = 0; n_i < lengths.size() * std::size(backgrounds); ++n_i) {
    const std::size_t n = lengths[n_i % lengths.size()];
    const std::vector<float>& low = backgrounds[n_i / lengths.size()];
    for (std::size_t offset = 0; offset < 4; ++offset) {
      float* x = buf.data() + offset;
      for (std::size_t hit = 0; hit <= n; hit += n < 100 ? 1 : 37) {
        for (std::size_t i = 0; i < n; ++i) x[i] = low[rng.uniform_u64(low.size())];
        if (hit < n) x[hit] = high[rng.uniform_u64(std::size(high))];
        for (const float t : thresholds) {
          std::size_t want = n;
          for (std::size_t i = 0; i < n; ++i) {
            if (x[i] > t) {
              want = i;
              break;
            }
          }
          ASSERT_TRUE(set_isa(Isa::Scalar));
          ASSERT_EQ(first_above_f32(x, n, t), want) << "scalar n=" << n << " t=" << t;
          ASSERT_TRUE(set_isa(GetParam()));
          ASSERT_EQ(first_above_f32(x, n, t), want) << "n=" << n << " offset=" << offset
                                                    << " hit=" << hit << " t=" << t
                                                    << " background " << n_i / lengths.size();
        }
      }
    }
  }
}

TEST_P(BackendParityTest, Softmax) {
  Rng rng(107);
  for (const std::size_t n : kSizes) {
    if (n == 0) continue;
    const auto x0 = random_vec(n, rng, 5.0f);
    auto ref = x0;
    auto got = x0;
    ASSERT_TRUE(set_isa(Isa::Scalar));
    softmax_f32(ref.data(), n);
    ASSERT_TRUE(set_isa(GetParam()));
    softmax_f32(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], ref[i], 2e-5f) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BackendParityTest, Bf16ConversionsBitExact) {
  Rng rng(108);
  for (const std::size_t n : kSizes) {
    auto src = random_vec(n, rng, 100.0f);
    if (n > 2) {
      src[0] = std::nanf("");
      src[n / 2] = 0.0f;
      src[n - 1] = -0.0f;
    }
    std::vector<bf16> ref16(n), got16(n);
    std::vector<float> ref32(n), got32(n);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    fp32_to_bf16(src.data(), ref16.data(), n);
    bf16_to_fp32(ref16.data(), ref32.data(), n);
    ASSERT_TRUE(set_isa(GetParam()));
    fp32_to_bf16(src.data(), got16.data(), n);
    bf16_to_fp32(ref16.data(), got32.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got16[i].bits, ref16[i].bits) << "n=" << n << " i=" << i;
      // Compare bit patterns so NaN == NaN.
      std::uint32_t rb, gb;
      std::memcpy(&rb, &ref32[i], 4);
      std::memcpy(&gb, &got32[i], 4);
      EXPECT_EQ(gb, rb) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BackendParityTest, AdamSteps) {
  Rng rng(109);
  for (const std::size_t n : kSizes) {
    const auto w0 = random_vec(n, rng);
    const auto g0 = random_vec(n, rng);
    std::vector<bf16> w16_ref(n), w16_got(n);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    fp32_to_bf16(w0.data(), w16_ref.data(), n);
    w16_got = w16_ref;

    auto ref_w = w0;
    std::vector<float> ref_m(n, 0.1f), ref_v(n, 0.2f);
    auto ref_g = g0;
    adam_step_f32(ref_w.data(), ref_m.data(), ref_v.data(), ref_g.data(), n, 1e-3f, 0.9f,
                  0.999f, 1e-8f, 1.5f, 1.2f);
    std::vector<float> ref_m16(n, 0.1f), ref_v16(n, 0.2f);
    auto ref_g16 = g0;
    adam_step_bf16(w16_ref.data(), ref_m16.data(), ref_v16.data(), ref_g16.data(), n, 1e-3f,
                   0.9f, 0.999f, 1e-8f, 1.5f, 1.2f);

    ASSERT_TRUE(set_isa(GetParam()));
    auto got_w = w0;
    std::vector<float> got_m(n, 0.1f), got_v(n, 0.2f);
    auto got_g = g0;
    adam_step_f32(got_w.data(), got_m.data(), got_v.data(), got_g.data(), n, 1e-3f, 0.9f,
                  0.999f, 1e-8f, 1.5f, 1.2f);
    std::vector<float> got_m16(n, 0.1f), got_v16(n, 0.2f);
    auto got_g16 = g0;
    adam_step_bf16(w16_got.data(), got_m16.data(), got_v16.data(), got_g16.data(), n, 1e-3f,
                   0.9f, 0.999f, 1e-8f, 1.5f, 1.2f);

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got_w[i], ref_w[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_NEAR(got_m[i], ref_m[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_NEAR(got_v[i], ref_v[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_EQ(got_g[i], 0.0f);
      // bf16 weights round to 8 significand bits: parity within one ULP of
      // the binade, not bit-exact (m/v stay fp32 and must agree tightly).
      EXPECT_NEAR(w16_got[i].to_float(), w16_ref[i].to_float(),
                  0.01f + 0.01f * std::abs(ref_w[i]))
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(got_m16[i], ref_m16[i], 1e-5f);
      EXPECT_NEAR(got_v16[i], ref_v16[i], 1e-5f);
      EXPECT_EQ(got_g16[i], 0.0f);
    }
  }
}

TEST_P(BackendParityTest, DotRowsFamily) {
  Rng rng(110);
  const std::size_t total_rows = 48;
  for (const std::size_t n : {1u, 8u, 9u, 17u, 128u}) {
    for (const std::size_t nrows : {0u, 1u, 4u, 5u, 13u}) {
      std::vector<float> w(total_rows * n);
      for (auto& v : w) v = rng.normal_float();
      const auto x = random_vec(n, rng);
      const auto rows = unique_indices(nrows, total_rows, rng);
      std::vector<bf16> w16(w.size()), x16(n);
      ASSERT_TRUE(set_isa(Isa::Scalar));
      fp32_to_bf16(w.data(), w16.data(), w.size());
      fp32_to_bf16(x.data(), x16.data(), n);
      std::vector<float> ref_ff(nrows), ref_fb(nrows), ref_bb(nrows);
      dot_rows_f32(w.data(), n, rows.data(), nrows, x.data(), n, ref_ff.data());
      dot_rows_wf32_xbf16(w.data(), n, rows.data(), nrows, x16.data(), n, ref_fb.data());
      dot_rows_wbf16_xbf16(w16.data(), n, rows.data(), nrows, x16.data(), n, ref_bb.data());
      ASSERT_TRUE(set_isa(GetParam()));
      std::vector<float> got_ff(nrows), got_fb(nrows), got_bb(nrows);
      dot_rows_f32(w.data(), n, rows.data(), nrows, x.data(), n, got_ff.data());
      dot_rows_wf32_xbf16(w.data(), n, rows.data(), nrows, x16.data(), n, got_fb.data());
      dot_rows_wbf16_xbf16(w16.data(), n, rows.data(), nrows, x16.data(), n, got_bb.data());
      for (std::size_t r = 0; r < nrows; ++r) {
        EXPECT_NEAR(got_ff[r], ref_ff[r], rel_tol(ref_ff[r])) << "n=" << n << " r=" << r;
        EXPECT_NEAR(got_fb[r], ref_fb[r], rel_tol(ref_fb[r])) << "n=" << n << " r=" << r;
        EXPECT_NEAR(got_bb[r], ref_bb[r], rel_tol(ref_bb[r])) << "n=" << n << " r=" << r;
      }
    }
  }
}

TEST_P(BackendParityTest, GatherAndGatherScatterExact) {
  Rng rng(111);
  for (const std::size_t n : kSizes) {
    const std::size_t universe = std::max<std::size_t>(2 * n, 32);
    const auto src = random_vec(universe, rng);
    std::vector<std::uint32_t> src_idx(n);
    for (auto& i : src_idx) i = static_cast<std::uint32_t>(rng.uniform_u64(universe));
    const auto dst_idx = unique_indices(n, universe, rng);

    std::vector<float> ref_g(n, -7.0f), got_g(n, -7.0f);
    std::vector<float> ref_s(universe, 0.0f), got_s(universe, 0.0f);
    on_both(GetParam(), [&](bool reference) {
      gather_f32(reference ? ref_g.data() : got_g.data(), src.data(), src_idx.data(), n);
      gather_scatter_f32(reference ? ref_s.data() : got_s.data(), dst_idx.data(), src.data(),
                         src_idx.data(), n);
    });
    EXPECT_EQ(got_g, ref_g) << "n=" << n;
    EXPECT_EQ(got_s, ref_s) << "n=" << n;
  }
}

TEST_P(BackendParityTest, WtaWinnersExact) {
  Rng rng(112);
  for (const std::size_t bins : {1u, 2u, 7u, 16u, 33u, 300u}) {
    std::vector<float> values(bins * 8);
    for (auto& v : values) v = rng.uniform_float() < 0.3f ? -FLT_MAX : rng.normal_float();
    std::vector<std::uint8_t> ref(bins, 255), got(bins, 255);
    on_both(GetParam(), [&](bool reference) {
      wta_winners_f32(values.data(), bins, reference ? ref.data() : got.data());
    });
    EXPECT_EQ(got, ref) << "bins=" << bins;
  }
}

// --- int8 quantized kernels ------------------------------------------------
// Integer accumulation doesn't reassociate, so every backend must match the
// scalar reference bit for bit (given quantize_u8's [0, 127] activation
// contract, which all generators below respect).

std::vector<std::uint8_t> random_u8(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_u64(128));
  return v;
}

std::vector<std::int8_t> random_s8(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.uniform_u64(255)) - 127);
  }
  return v;
}

TEST_P(BackendParityTest, DotU8S8Exact) {
  Rng rng(113);
  for (const std::size_t n : kSizes) {
    const auto a = random_u8(n, rng);
    const auto b = random_s8(n, rng);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    const std::int32_t ref = dot_u8s8(a.data(), b.data(), n);
    ASSERT_TRUE(set_isa(GetParam()));
    EXPECT_EQ(dot_u8s8(a.data(), b.data(), n), ref) << "n=" << n;
  }
}

TEST_P(BackendParityTest, SparseDotU8S8Exact) {
  Rng rng(114);
  for (const std::size_t nnz : kSizes) {
    const std::size_t universe = std::max<std::size_t>(4 * nnz, 64);
    const auto idx = unique_indices(nnz, universe, rng);
    const auto val = random_u8(nnz, rng);
    const auto w = random_s8(universe, rng);
    ASSERT_TRUE(set_isa(Isa::Scalar));
    std::int32_t ref_dot = -1, ref_wsum = -1;
    sparse_dot_u8s8(idx.data(), val.data(), nnz, w.data(), &ref_dot, &ref_wsum);
    ASSERT_TRUE(set_isa(GetParam()));
    std::int32_t got_dot = -2, got_wsum = -2;
    sparse_dot_u8s8(idx.data(), val.data(), nnz, w.data(), &got_dot, &got_wsum);
    EXPECT_EQ(got_dot, ref_dot) << "nnz=" << nnz;
    EXPECT_EQ(got_wsum, ref_wsum) << "nnz=" << nnz;
  }
}

TEST_P(BackendParityTest, DotRowsU8S8Exact) {
  Rng rng(115);
  const std::size_t total_rows = 48;
  for (const std::size_t n : {1u, 8u, 9u, 17u, 64u, 128u, 131u}) {
    for (const std::size_t nrows : {0u, 1u, 4u, 5u, 13u}) {
      const auto w = random_s8(total_rows * n, rng);
      const auto x = random_u8(n, rng);
      const auto rows = unique_indices(nrows, total_rows, rng);
      ASSERT_TRUE(set_isa(Isa::Scalar));
      std::vector<std::int32_t> ref(nrows), ref_all(total_rows);
      dot_rows_u8s8(w.data(), n, rows.data(), nrows, x.data(), n, ref.data());
      dot_rows_u8s8(w.data(), n, nullptr, total_rows, x.data(), n, ref_all.data());
      ASSERT_TRUE(set_isa(GetParam()));
      std::vector<std::int32_t> got(nrows), got_all(total_rows);
      dot_rows_u8s8(w.data(), n, rows.data(), nrows, x.data(), n, got.data());
      dot_rows_u8s8(w.data(), n, nullptr, total_rows, x.data(), n, got_all.data());
      EXPECT_EQ(got, ref) << "n=" << n << " nrows=" << nrows;
      EXPECT_EQ(got_all, ref_all) << "n=" << n;
    }
  }
}

TEST_P(BackendParityTest, SparseAxpyRowsU8S8Exact) {
  // Besides matching the scalar reference, every column of the
  // feature-major sums must equal sparse_dot_u8s8 over that column read as
  // a neuron-major row: the frozen engine relies on it for bit-exact int8.
  Rng rng(117);
  const std::size_t features = 200;
  for (const std::size_t n : {1u, 7u, 8u, 16u, 17u, 32u, 33u, 128u, 131u}) {
    for (const std::size_t nnz : {0u, 1u, 5u, 64u}) {
      const auto w = random_s8(features * n, rng);
      const auto idx = unique_indices(nnz, features, rng);
      const auto val = random_u8(nnz, rng);
      ASSERT_TRUE(set_isa(Isa::Scalar));
      std::vector<std::int32_t> ref_dot(n, -1), ref_wsum(n, -1);
      sparse_axpy_rows_u8s8(idx.data(), val.data(), nnz, w.data(), n, ref_dot.data(),
                            ref_wsum.data(), n);
      std::vector<std::int8_t> column(features);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t f = 0; f < features; ++f) column[f] = w[f * n + c];
        std::int32_t dot = 0, wsum = 0;
        sparse_dot_u8s8(idx.data(), val.data(), nnz, column.data(), &dot, &wsum);
        ASSERT_EQ(ref_dot[c], dot) << "n=" << n << " nnz=" << nnz << " c=" << c;
        ASSERT_EQ(ref_wsum[c], wsum) << "n=" << n << " nnz=" << nnz << " c=" << c;
      }
      ASSERT_TRUE(set_isa(GetParam()));
      std::vector<std::int32_t> got_dot(n, -2), got_wsum(n, -2);
      sparse_axpy_rows_u8s8(idx.data(), val.data(), nnz, w.data(), n, got_dot.data(),
                            got_wsum.data(), n);
      EXPECT_EQ(got_dot, ref_dot) << "n=" << n << " nnz=" << nnz;
      EXPECT_EQ(got_wsum, ref_wsum) << "n=" << n << " nnz=" << nnz;
    }
  }
}

TEST_P(BackendParityTest, QuantizeDequantizeU8Exact) {
  Rng rng(116);
  for (const std::size_t n : kSizes) {
    auto src = random_vec(n, rng, 8.0f);
    if (n > 2) {
      src[0] = 1e6f;    // clamps to 127
      src[n - 1] = -1e6f;  // clamps to 0
    }
    std::vector<std::uint8_t> ref_q(n, 255), got_q(n, 255);
    std::vector<float> ref_d(n, -1.0f), got_d(n, -1.0f);
    on_both(GetParam(), [&](bool reference) {
      auto* q = reference ? ref_q.data() : got_q.data();
      quantize_u8(src.data(), q, n, /*inv_scale=*/16.0f, /*zero_point=*/50);
      dequantize_u8(q, reference ? ref_d.data() : got_d.data(), n, 0.0625f, 50);
    });
    EXPECT_EQ(got_q, ref_q) << "n=" << n;
    EXPECT_EQ(got_d, ref_d) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_LE(ref_q[i], 127) << "n=" << n << " i=" << i;
  }
}

// The dot_rows_* kernel for the (weight, input) element types, in its
// single-query or query-block form (picked by the argument count).
template <class TW, class TX, class... Args>
void dot_rows_of(const TW* w, Args... args) {
  if constexpr (std::is_same_v<TW, std::int8_t>) {
    dot_rows_u8s8(w, args...);
  } else if constexpr (std::is_same_v<TW, bf16>) {
    dot_rows_wbf16_xbf16(w, args...);
  } else if constexpr (std::is_same_v<TX, bf16>) {
    dot_rows_wf32_xbf16(w, args...);
  } else {
    dot_rows_f32(w, args...);
  }
}

// Runs xs.size() queries through the active backend's kernel one at a
// time and as one block; true when every (row, query) output has the same
// bits both ways.
template <class TO, class TW, class TX>
bool block_matches_single(const TW* w, std::size_t ld, const std::uint32_t* rows,
                          std::size_t nrows, const std::vector<std::vector<TX>>& xs,
                          std::size_t n) {
  const std::size_t nq = xs.size();
  std::vector<std::vector<TO>> single(nq, std::vector<TO>(nrows));
  std::vector<std::vector<TO>> block(nq, std::vector<TO>(nrows, TO(-7)));
  std::vector<const TX*> x(nq);
  std::vector<TO*> out(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    dot_rows_of<TW, TX>(w, ld, rows, nrows, xs[q].data(), n, single[q].data());
    x[q] = xs[q].data();
    out[q] = block[q].data();
  }
  dot_rows_of<TW, TX>(w, ld, rows, nrows, x.data(), nq, n, out.data());
  for (std::size_t q = 0; q < nq && nrows > 0; ++q) {
    if (std::memcmp(single[q].data(), block[q].data(), nrows * sizeof(TO)) != 0) return false;
  }
  return true;
}

// Every backend's query-block dot_rows_* equals its own one-query calls bit
// for bit, at every precision, for full 4x4 tiles, leftover queries and
// leftover rows, vector tails, and explicit or implicit row lists.
TEST(BackendParity, DotRowsQueryBlockMatchesSingleQuery) {
  const Isa ambient = active_isa();
  Rng rng(118);
  const std::size_t arena_rows = 20;
  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(set_isa(isa));
    for (const std::size_t n : kSizes) {
      const std::size_t ld = n + 5;
      const auto w = random_vec(arena_rows * ld, rng);
      std::vector<bf16> w16(w.size());
      fp32_to_bf16(w.data(), w16.data(), w.size());
      const auto w8 = random_s8(arena_rows * ld, rng);
      for (const std::size_t nq : {1u, 2u, 3u, 4u, 5u, 8u, 17u}) {
        std::vector<std::vector<float>> x(nq);
        std::vector<std::vector<bf16>> x16(nq, std::vector<bf16>(n));
        std::vector<std::vector<std::uint8_t>> x8(nq);
        for (std::size_t q = 0; q < nq; ++q) {
          x[q] = random_vec(n, rng);
          fp32_to_bf16(x[q].data(), x16[q].data(), n);
          x8[q] = random_u8(n, rng);
        }
        for (const std::size_t nrows : {0u, 1u, 3u, 4u, 5u, 13u}) {
          const auto list = unique_indices(nrows, arena_rows, rng);
          for (const bool explicit_rows : {true, false}) {
            const std::uint32_t* rows = explicit_rows ? list.data() : nullptr;
            const std::string where = std::string(isa_name(isa)) + " n=" + std::to_string(n) +
                                      " nq=" + std::to_string(nq) +
                                      " nrows=" + std::to_string(nrows) +
                                      (explicit_rows ? " rows" : " nullptr");
            EXPECT_TRUE(block_matches_single<float>(w.data(), ld, rows, nrows, x, n)) << where;
            EXPECT_TRUE(block_matches_single<float>(w.data(), ld, rows, nrows, x16, n))
                << where;
            EXPECT_TRUE(block_matches_single<float>(w16.data(), ld, rows, nrows, x16, n))
                << where;
            EXPECT_TRUE(block_matches_single<std::int32_t>(w8.data(), ld, rows, nrows, x8, n))
                << where;
          }
        }
      }
    }
  }
  set_isa(ambient);
}

INSTANTIATE_TEST_SUITE_P(VectorBackends, BackendParityTest,
                         ::testing::ValuesIn(available_isas()),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(isa_name(info.param));
                         });

}  // namespace
}  // namespace slide::kernels
