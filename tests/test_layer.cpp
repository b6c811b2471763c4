#include "core/layer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace slide {
namespace {

LayerConfig dense_cfg(std::size_t dim, Activation act = Activation::ReLU) {
  LayerConfig cfg;
  cfg.dim = dim;
  cfg.activation = act;
  return cfg;
}

LayerConfig hashed_cfg(std::size_t dim) {
  LayerConfig cfg;
  cfg.dim = dim;
  cfg.activation = Activation::Softmax;
  cfg.lsh.kind = HashKind::Dwta;
  cfg.lsh.k = 3;
  cfg.lsh.l = 8;
  cfg.lsh.bucket_capacity = 32;
  return cfg;
}

// The layer's pre-activations for a sparse input: the forward pass over
// the layer alone, whose output stays raw.
std::vector<float> pre_activations(const Layer& L, data::SparseVectorView x) {
  const LayerView view = L.view();
  ForwardScratch s;
  s.layers.emplace_back(0, view);
  inference_forward({&view, 1}, L.precision(), x, /*sampled=*/false, s);
  return {s.layers[0].act.begin(), s.layers[0].act.end()};
}

// Neuron n's pre-activation on a dense input x (Algorithm 1's dot).
float dense_pre_activation(const Layer& L, std::uint32_t n, const float* x) {
  return kernels::dot_f32(x, L.row_f32(n), L.input_dim()) + L.biases()[n];
}

TEST(Layer, ValidatesDimensions) {
  EXPECT_THROW(Layer(0, dense_cfg(4), Precision::Fp32, 1), std::invalid_argument);
  EXPECT_THROW(Layer(4, dense_cfg(0), Precision::Fp32, 1), std::invalid_argument);
}

TEST(Layer, InitializationIsDeterministic) {
  const Layer a(16, dense_cfg(8), Precision::Fp32, 7);
  const Layer b(16, dense_cfg(8), Precision::Fp32, 7);
  const Layer c(16, dense_cfg(8), Precision::Fp32, 8);
  ASSERT_EQ(a.weights_f32().size(), b.weights_f32().size());
  bool all_equal_ab = true, all_equal_ac = true;
  for (std::size_t i = 0; i < a.weights_f32().size(); ++i) {
    all_equal_ab &= a.weights_f32()[i] == b.weights_f32()[i];
    all_equal_ac &= a.weights_f32()[i] == c.weights_f32()[i];
  }
  EXPECT_TRUE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

TEST(Layer, InitializationScaleTracksFanIn) {
  const Layer wide(1024, dense_cfg(4), Precision::Fp32, 3);
  const Layer narrow(16, dense_cfg(4), Precision::Fp32, 3);
  const auto rms = [](std::span<const float> w) {
    double s = 0;
    for (const float x : w) s += static_cast<double>(x) * x;
    return std::sqrt(s / static_cast<double>(w.size()));
  };
  // He init: stddev = sqrt(2/fan_in).
  EXPECT_NEAR(rms(wide.weights_f32()), std::sqrt(2.0 / 1024), 0.005);
  EXPECT_NEAR(rms(narrow.weights_f32()), std::sqrt(2.0 / 16), 0.05);
}

TEST(Layer, PreActivationMatchesManualDot) {
  Layer L(8, dense_cfg(3), Precision::Fp32, 5);
  std::vector<float> x = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t idx[] = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<float> out = pre_activations(L, {idx, x.data(), 8});
  for (std::uint32_t n = 0; n < 3; ++n) {
    double ref = 0;
    for (std::size_t j = 0; j < 8; ++j) ref += static_cast<double>(L.row_f32(n)[j]) * x[j];
    EXPECT_NEAR(out[n], ref, 1e-5);
  }
}

TEST(Layer, SparsePreActivationMatchesDenseEquivalent) {
  Layer L(16, dense_cfg(4), Precision::Fp32, 9);
  const std::uint32_t idx[] = {2, 7, 11};
  const float val[] = {1.5f, -2.0f, 0.25f};
  std::vector<float> dense(16, 0.0f);
  for (int k = 0; k < 3; ++k) dense[idx[k]] = val[k];
  const std::vector<float> out = pre_activations(L, {idx, val, 3});
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_NEAR(out[n], dense_pre_activation(L, n, dense.data()), 1e-5f);
  }
}

TEST(Layer, AccumulateThenAdamMovesOnlyDirtyRows) {
  Layer L(4, dense_cfg(3), Precision::Fp32, 11);
  const std::vector<float> before(L.weights_f32().begin(), L.weights_f32().end());

  std::vector<float> prev = {1.0f, 0.0f, -1.0f, 2.0f};
  std::vector<float> prev_grad(4, 0.0f);
  const std::uint32_t row = 1;
  const float g = 0.5f;
  L.backward_rows(&row, &g, 1, prev.data(), prev_grad.data());

  const AdamConfig cfg;
  L.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);

  for (std::uint32_t n = 0; n < 3; ++n) {
    for (std::size_t j = 0; j < 4; ++j) {
      const float w = L.row_f32(n)[j];
      const float orig = before[n * 4 + j];
      if (n == 1 && prev[j] != 0.0f) {
        EXPECT_NE(w, orig) << "dirty row must move (j=" << j << ")";
      } else {
        EXPECT_EQ(w, orig) << "clean row must not move (n=" << n << " j=" << j << ")";
      }
    }
  }
}

TEST(Layer, AdamStepClearsGradientsAndFlags) {
  Layer L(4, dense_cfg(2), Precision::Fp32, 13);
  std::vector<float> prev = {1, 1, 1, 1};
  std::vector<float> prev_grad(4, 0.0f);
  const std::uint32_t row = 0;
  const float g = 1.0f;
  L.backward_rows(&row, &g, 1, prev.data(), prev_grad.data());
  const AdamConfig cfg;
  L.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);
  for (const float g : L.weight_gradients()) EXPECT_EQ(g, 0.0f);

  // Second step with no new gradient: weights stay put.
  const std::vector<float> w1(L.weights_f32().begin(), L.weights_f32().end());
  L.adam_step(cfg, adam_bias_correction(cfg, 2), nullptr);
  for (std::size_t i = 0; i < w1.size(); ++i) EXPECT_EQ(L.weights_f32()[i], w1[i]);
}

TEST(Layer, SparseGradAccumulationTargetsIndices) {
  Layer L(8, dense_cfg(2), Precision::Fp32, 17);
  const std::uint32_t idx[] = {1, 6};
  const float val[] = {2.0f, -1.0f};
  L.accumulate_grad_sparse(0, 0.5f, {idx, val, 2});
  const auto g = L.weight_gradients();
  EXPECT_FLOAT_EQ(g[1], 1.0f);
  EXPECT_FLOAT_EQ(g[6], -0.5f);
  for (const std::size_t j : {0u, 2u, 3u, 4u, 5u, 7u}) EXPECT_EQ(g[j], 0.0f);
}

TEST(Layer, BackpropToDenseAddsScaledRow) {
  Layer L(4, dense_cfg(2), Precision::Fp32, 19);
  std::vector<float> grad(4, 1.0f);
  const std::vector<float> prev(4, 0.0f);
  const std::uint32_t row = 1;
  const float g = 2.0f;
  L.backward_rows(&row, &g, 1, prev.data(), grad.data());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(grad[j], 1.0f + 2.0f * L.row_f32(1)[j]);
  }
}

TEST(Layer, BackpropToSparseMatchesDenseSubset) {
  Layer L(8, dense_cfg(2), Precision::Fp32, 23);
  std::vector<float> dense_grad(8, 0.0f);
  const std::vector<float> prev(8, 0.0f);
  const std::uint32_t row = 0;
  const float g = 1.5f;
  L.backward_rows(&row, &g, 1, prev.data(), dense_grad.data());

  const std::uint32_t active[] = {1, 4, 7};
  std::vector<float> compact(3, 0.0f);
  std::vector<float> scratch(3);
  L.backprop_to_sparse(0, 1.5f, active, 3, scratch.data(), compact.data());
  for (int k = 0; k < 3; ++k) EXPECT_FLOAT_EQ(compact[k], dense_grad[active[k]]);
}

std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// One backward_rows call over an active list leaves what the per-row axpy
// pairs leave, bit for bit: the gradient arena, the bias gradient and
// prev_grad.  ADAM then moves exactly the rows with g != 0.
TEST(Layer, BackwardRowsMatchesPerRowAxpy) {
  const std::size_t in = 100, dim = 24;  // whole tiles plus a tail at every width
  const std::vector<std::uint32_t> rows = {5, 0, 17, 9, 23, 2};
  const std::vector<float> g = {0.3f, -0.7f, 0.0f, 1.1f, 0.25f, -0.05f};
  std::vector<float> prev(in), grad0(in);
  for (std::size_t j = 0; j < in; ++j) {
    prev[j] = 0.05f * static_cast<float>(j % 11) - 0.27f;  // never 0
    grad0[j] = 0.01f * static_cast<float>(j % 7) - 0.02f;
  }
  for (const Precision p : {Precision::Fp32, Precision::Bf16Activations, Precision::Bf16All}) {
    SCOPED_TRACE("precision " + std::to_string(static_cast<int>(p)));
    Layer L(in, dense_cfg(dim), p, 67);
    std::vector<float> prev_grad = grad0, ref_prev_grad = grad0;
    std::vector<float> ref_gw(dim * in, 0.0f), ref_gb(dim, 0.0f);
    L.backward_rows(rows.data(), g.data(), rows.size(), prev.data(), prev_grad.data());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (g[k] == 0.0f) continue;
      const std::uint32_t n = rows[k];
      kernels::axpy_f32(g[k], prev.data(), ref_gw.data() + n * in, in);
      if (p == Precision::Bf16All) {
        kernels::axpy_bf16(g[k], L.row_bf16(n), ref_prev_grad.data(), in);
      } else {
        kernels::axpy_f32(g[k], L.row_f32(n), ref_prev_grad.data(), in);
      }
      ref_gb[n] += g[k];
    }
    for (std::size_t i = 0; i < ref_gw.size(); ++i) {
      ASSERT_EQ(bits(L.weight_gradients()[i]), bits(ref_gw[i])) << "i=" << i;
    }
    for (std::uint32_t n = 0; n < dim; ++n) {
      ASSERT_EQ(bits(L.bias_gradients()[n]), bits(ref_gb[n])) << "n=" << n;
    }
    for (std::size_t j = 0; j < in; ++j) {
      ASSERT_EQ(bits(prev_grad[j]), bits(ref_prev_grad[j])) << "j=" << j;
    }

    std::vector<float> w0(dim * in);
    for (std::uint32_t n = 0; n < dim; ++n) {
      for (std::size_t j = 0; j < in; ++j) w0[n * in + j] = L.weight(n, j);
    }
    const std::vector<float> b0(L.biases().begin(), L.biases().end());
    const AdamConfig cfg;
    L.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);
    for (std::uint32_t n = 0; n < dim; ++n) {
      bool dirty = false;
      for (std::size_t k = 0; k < rows.size(); ++k) dirty |= rows[k] == n && g[k] != 0.0f;
      EXPECT_EQ(L.biases()[n] != b0[n], dirty) << "n=" << n;
      for (std::size_t j = 0; j < in; ++j) {
        ASSERT_EQ(L.moment1()[L.weight_index(n, j)] != 0.0f, dirty) << "n=" << n << " j=" << j;
        if (!dirty) {
          ASSERT_EQ(L.weight(n, j), w0[n * in + j]) << "n=" << n << " j=" << j;
        }
      }
    }
  }
}

TEST(Layer, Bf16AllStoresWeightsAsBf16) {
  Layer L(16, dense_cfg(4), Precision::Bf16All, 29);
  EXPECT_TRUE(L.weights_f32().empty());
  EXPECT_EQ(L.weights_bf16().size(), 64u);

  // The bf16 layer's pre-activation approximates an fp32 twin's.
  Layer ref(16, dense_cfg(4), Precision::Fp32, 29);
  std::vector<float> x(16, 1.0f);
  std::vector<std::uint32_t> idx(16);
  for (std::size_t i = 0; i < 16; ++i) idx[i] = static_cast<std::uint32_t>(i);
  const std::vector<float> bias_only = pre_activations(L, {nullptr, nullptr, 0});
  const std::vector<float> full = pre_activations(L, {idx.data(), x.data(), 16});
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(bias_only[n], 0.0f);
    const float exact = dense_pre_activation(ref, n, x.data());
    EXPECT_NEAR(full[n], exact, std::abs(exact) * 0.02f + 0.02f);
  }
}

// --- feature-major layout -----------------------------------------------------

TEST(Layer, InitIsTheSameInEitherLayoutAndOnAPool) {
  // The second shape is large enough for the init to split over the pool.
  ThreadPool pool(4);
  for (const Precision p : {Precision::Fp32, Precision::Bf16All}) {
    for (const auto& [in, dim] : {std::pair<std::size_t, std::size_t>{37, 19}, {600, 70}}) {
      const Layer ref(in, dense_cfg(dim), p, 43);
      const Layer fm(in, dense_cfg(dim), p, 43, WeightLayout::FeatureMajor);
      const Layer nm_pool(in, dense_cfg(dim), p, 43, WeightLayout::NeuronMajor, &pool);
      const Layer fm_pool(in, dense_cfg(dim), p, 43, WeightLayout::FeatureMajor, &pool);
      EXPECT_TRUE(fm.feature_major());
      for (std::uint32_t n = 0; n < dim; ++n) {
        for (std::size_t j = 0; j < in; ++j) {
          const float w = ref.weight(n, j);
          ASSERT_EQ(fm.weight(n, j), w) << "n=" << n << " j=" << j;
          ASSERT_EQ(nm_pool.weight(n, j), w) << "n=" << n << " j=" << j;
          ASSERT_EQ(fm_pool.weight(n, j), w) << "n=" << n << " j=" << j;
        }
      }
    }
  }
}

TEST(Layer, FeatureMajorRejectsHashedLayers) {
  EXPECT_THROW(Layer(32, hashed_cfg(64), Precision::Fp32, 1, WeightLayout::FeatureMajor),
               std::invalid_argument);
}

TEST(Layer, FeatureMajorForwardMatchesNeuronMajorReference) {
  // Widths around the vector tiles: partial vectors, whole vectors, tiles.
  const std::uint32_t idx[] = {0, 3, 17, 18, 40, 63};
  const float val[] = {1.5f, -2.0f, 0.25f, 3.0f, -0.75f, 1.0f};
  for (const Precision p : {Precision::Fp32, Precision::Bf16All}) {
    for (const std::size_t dim : {1u, 7u, 16u, 33u, 64u, 130u}) {
      const Layer nm(64, dense_cfg(dim), p, 47);
      const Layer fm(64, dense_cfg(dim), p, 47, WeightLayout::FeatureMajor);
      const std::vector<float> out = pre_activations(fm, {idx, val, 6});
      const std::vector<float> ref = pre_activations(nm, {idx, val, 6});
      for (std::uint32_t n = 0; n < dim; ++n) {
        EXPECT_NEAR(out[n], ref[n], 1e-5f + std::abs(ref[n]) * 1e-5f)
            << "dim=" << dim << " n=" << n;
      }
    }
  }
}

TEST(Layer, FeatureMajorGradientIsOuterProduct) {
  Layer L(12, dense_cfg(20), Precision::Fp32, 53, WeightLayout::FeatureMajor);
  const std::uint32_t idx[] = {2, 5, 11};
  const float val[] = {0.5f, -1.25f, 3.0f};
  std::vector<float> g(20);
  for (std::size_t n = 0; n < 20; ++n) g[n] = 0.1f * static_cast<float>(n) - 0.7f;
  L.accumulate_grad_input({idx, val, 3}, g.data());

  const auto grads = L.weight_gradients();
  for (std::uint32_t n = 0; n < 20; ++n) {
    for (std::size_t j = 0; j < 12; ++j) {
      float want = 0.0f;
      for (int k = 0; k < 3; ++k) {
        if (idx[k] == j) want = g[n] * val[k];
      }
      ASSERT_EQ(grads[L.weight_index(n, j)], want) << "n=" << n << " j=" << j;
    }
  }
}

// ADAM over a feature-major layer must update exactly what the neuron-major
// layer updates: the dirty neurons' weights and moments, bit for bit, and
// nothing of a clean neuron.
TEST(Layer, FeatureMajorAdamMovesExactlyTheDirtyColumns) {
  const std::size_t in = 9, dim = 40;
  Layer nm(in, dense_cfg(dim), Precision::Fp32, 59);
  Layer fm(in, dense_cfg(dim), Precision::Fp32, 59, WeightLayout::FeatureMajor);
  const AdamConfig cfg;
  // The same example into both layers: g[n] = 0 leaves neuron n clean.
  const auto accumulate = [&](data::SparseVectorView x, const std::vector<float>& g) {
    fm.accumulate_grad_input(x, g.data());
    for (std::uint32_t n = 0; n < dim; ++n) {
      if (g[n] != 0.0f) nm.accumulate_grad_sparse(n, g[n], x);
    }
  };
  const auto expect_twins_equal = [&](const char* step) {
    for (std::uint32_t n = 0; n < dim; ++n) {
      for (std::size_t j = 0; j < in; ++j) {
        ASSERT_EQ(fm.weight(n, j), nm.weight(n, j)) << step << " n=" << n << " j=" << j;
        ASSERT_EQ(fm.moment1()[fm.weight_index(n, j)], nm.moment1()[nm.weight_index(n, j)]);
        ASSERT_EQ(fm.moment2()[fm.weight_index(n, j)], nm.moment2()[nm.weight_index(n, j)]);
      }
      ASSERT_EQ(fm.biases()[n], nm.biases()[n]) << step << " n=" << n;
    }
  };

  // Step 1, every neuron dirty.
  const std::uint32_t idx1[] = {0, 4, 8};
  const float val1[] = {1.0f, -0.5f, 2.0f};
  std::vector<float> g1(dim);
  for (std::size_t n = 0; n < dim; ++n) g1[n] = 0.05f * static_cast<float>(n + 1);
  accumulate({idx1, val1, 3}, g1);
  fm.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);
  nm.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);
  expect_twins_equal("all dirty");

  // Step 2, a few runs of dirty neurons (isolated, adjacent, at both ends)
  // on other features: dirty columns' moments decay everywhere, clean
  // columns must not move at all.
  const std::vector<float> w1(fm.weights_f32().begin(), fm.weights_f32().end());
  const std::vector<float> m1(fm.moment1().begin(), fm.moment1().end());
  const std::uint32_t idx2[] = {1, 4};
  const float val2[] = {-1.5f, 0.75f};
  std::vector<float> g2(dim, 0.0f);
  for (const std::size_t n : {0u, 5u, 6u, 7u, 20u, 39u}) g2[n] = 0.3f;
  accumulate({idx2, val2, 2}, g2);
  fm.adam_step(cfg, adam_bias_correction(cfg, 2), nullptr);
  nm.adam_step(cfg, adam_bias_correction(cfg, 2), nullptr);
  expect_twins_equal("partly dirty");
  for (std::uint32_t n = 0; n < dim; ++n) {
    for (std::size_t j = 0; j < in; ++j) {
      const std::size_t i = fm.weight_index(n, j);
      if (g2[n] == 0.0f) {
        EXPECT_EQ(fm.weights_f32()[i], w1[i]) << "clean n=" << n << " j=" << j;
        EXPECT_EQ(fm.moment1()[i], m1[i]) << "clean n=" << n << " j=" << j;
      } else if (m1[i] != 0.0f) {
        EXPECT_NE(fm.moment1()[i], m1[i]) << "dirty n=" << n << " j=" << j;
      }
    }
  }
  for (const float g : fm.weight_gradients()) EXPECT_EQ(g, 0.0f);
}

TEST(Layer, FeatureMajorAdamOnPoolMatchesSerial) {
  // Wide enough that the sweep splits over the pool.
  ThreadPool pool(4);
  Layer serial(3000, dense_cfg(24), Precision::Bf16All, 61, WeightLayout::FeatureMajor);
  Layer pooled(3000, dense_cfg(24), Precision::Bf16All, 61, WeightLayout::FeatureMajor);
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  for (std::uint32_t j = 0; j < 3000; j += 7) {
    idx.push_back(j);
    val.push_back(0.01f * static_cast<float>(j % 13) - 0.05f);
  }
  std::vector<float> g(24, 0.0f);
  for (std::size_t n = 0; n < 24; n += 3) g[n] = 0.2f;
  for (Layer* L : {&serial, &pooled}) {
    L->accumulate_grad_input({idx.data(), val.data(), idx.size()}, g.data());
  }
  const AdamConfig cfg;
  serial.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);
  pooled.adam_step(cfg, adam_bias_correction(cfg, 1), &pool);
  const auto a = serial.weights_bf16();
  const auto b = pooled.weights_bf16();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i].bits, b[i].bits) << i;
}

TEST(Layer, HashedLayerBuildsTables) {
  Layer L(32, hashed_cfg(64), Precision::Fp32, 31);
  ASSERT_TRUE(L.uses_hashing());
  L.rebuild_tables(nullptr);
  // Every neuron must be present in every table (capacity is large enough).
  std::size_t total = 0;
  for (std::size_t t = 0; t < L.tables()->num_tables(); ++t) {
    total += L.tables()->stats(t).total_entries;
  }
  EXPECT_EQ(total, 64u * L.tables()->num_tables());
}

TEST(Layer, RebuildScheduleGrows) {
  LayerConfig cfg = hashed_cfg(32);
  cfg.lsh.rebuild_interval = 2;
  cfg.lsh.rebuild_growth = 2.0;
  Layer L(16, cfg, Precision::Fp32, 37);
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 1
  EXPECT_TRUE(L.on_batch_end(nullptr));   // 2 -> rebuild, next interval 4
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 1
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 2
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 3
  EXPECT_TRUE(L.on_batch_end(nullptr));   // 4 -> rebuild
}

TEST(Layer, DenseLayerNeverRebuilds) {
  Layer L(8, dense_cfg(4), Precision::Fp32, 41);
  EXPECT_FALSE(L.uses_hashing());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(L.on_batch_end(nullptr));
}

}  // namespace
}  // namespace slide
