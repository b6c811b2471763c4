#include "core/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/synthetic.h"
#include "threading/thread_pool.h"

namespace slide {
namespace {

NetworkConfig tiny_dense(std::size_t input = 12, std::size_t hidden = 6,
                         std::size_t labels = 8) {
  return make_dense_mlp(input, hidden, labels, Precision::Fp32, 123);
}

NetworkConfig tiny_slide(std::size_t input = 12, std::size_t hidden = 6,
                         std::size_t labels = 64) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 6;
  lsh.min_active = 16;
  lsh.bucket_capacity = 64;
  return make_slide_mlp(input, hidden, labels, lsh, Precision::Fp32, 123);
}

data::SparseVectorView view(const std::vector<std::uint32_t>& idx,
                            const std::vector<float>& val) {
  return {idx.data(), val.data(), idx.size()};
}

TEST(Network, ValidatesConfig) {
  NetworkConfig bad;
  EXPECT_THROW(Network{bad}, std::invalid_argument);
  bad.input_dim = 4;
  EXPECT_THROW(Network{bad}, std::invalid_argument);
  // The output layer, and only it, is Softmax.
  NetworkConfig relu_output = tiny_dense();
  relu_output.layers.back().activation = Activation::ReLU;
  EXPECT_THROW(Network{relu_output}, std::invalid_argument);
  NetworkConfig softmax_hidden = tiny_dense();
  softmax_hidden.layers.front().activation = Activation::Softmax;
  EXPECT_THROW(Network{softmax_hidden}, std::invalid_argument);
  // Int8 is serving-only: a live layer has no int8 weights to run.
  NetworkConfig int8 = tiny_dense();
  int8.precision = Precision::Int8;
  EXPECT_THROW(Network{int8}, std::invalid_argument);
}

TEST(Network, CountsParameters) {
  Network net(tiny_dense(12, 6, 8));
  // 12*6+6 + 6*8+8 = 78 + 56 = 134
  EXPECT_EQ(net.num_params(), 134u);
}

TEST(Network, DenseInputLayerIsFeatureMajor) {
  const Network slide_net(tiny_slide());
  EXPECT_TRUE(slide_net.layer(0).feature_major());
  EXPECT_FALSE(slide_net.layer(1).feature_major());  // hashed: tables hash neuron rows
  const Network dense_net(tiny_dense());
  EXPECT_TRUE(dense_net.layer(0).feature_major());
  EXPECT_FALSE(dense_net.layer(1).feature_major());  // dense, but fed by a dense layer

  // A hashed input layer keeps its neuron rows.
  NetworkConfig cfg = tiny_slide();
  cfg.layers[0].lsh = cfg.layers[1].lsh;
  const Network hashed_input(cfg);
  EXPECT_FALSE(hashed_input.layer(0).feature_major());
}

TEST(Network, DenseForwardProducesProbabilityDistribution) {
  Network net(tiny_dense());
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {0, 5, 11};
  const std::vector<float> val = {1.0f, -0.5f, 2.0f};
  const std::vector<std::uint32_t> labels = {2};
  const float loss = net.forward(view(idx, val), labels, ws, /*train=*/true);
  EXPECT_GT(loss, 0.0f);
  const auto& out = ws.layers.back().act;
  ASSERT_EQ(out.size(), 8u);
  float sum = 0;
  for (const float p : out) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4);
}

TEST(Network, SlideForwardIncludesLabelsFirst) {
  Network net(tiny_slide());
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {1, 4};
  const std::vector<float> val = {1.0f, 1.0f};
  const std::vector<std::uint32_t> labels = {42, 7};
  net.forward(view(idx, val), labels, ws, /*train=*/true);
  const auto& active = ws.layers.back().active;
  ASSERT_GE(active.size(), 2u);
  EXPECT_EQ(active[0], 42u);
  EXPECT_EQ(active[1], 7u);
  EXPECT_GE(active.size(), 16u);  // min_active top-up
}

TEST(Network, EvalForwardUsesNoForcedLabels) {
  Network net(tiny_slide());
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {1, 4};
  const std::vector<float> val = {1.0f, 1.0f};
  const std::vector<std::uint32_t> labels = {42};
  net.forward(view(idx, val), labels, ws, /*train=*/false);
  // 42 may appear via buckets but must not be guaranteed first.
  // (The meaningful check: loss is 0 in eval mode.)
  EXPECT_EQ(net.forward(view(idx, val), labels, ws, false), 0.0f);
}

// Finite-difference gradient check on a dense network.
TEST(Network, GradientsMatchFiniteDifferences) {
  Network net(tiny_dense(10, 5, 6));
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {0, 3, 9};
  const std::vector<float> val = {0.8f, -1.2f, 0.6f};
  const std::vector<std::uint32_t> labels = {1, 4};

  net.forward(view(idx, val), labels, ws, true);
  net.backward(view(idx, val), labels, ws);

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    Layer& L = net.layer(li);
    const auto grads = L.weight_gradients();
    auto weights = L.weights_f32();
    // Probe a spread of weights in this layer.
    for (std::size_t p = 0; p < weights.size(); p += std::max<std::size_t>(1, weights.size() / 17)) {
      const float orig = weights[p];
      const float eps = 1e-3f;
      weights[p] = orig + eps;
      const float up = net.forward(view(idx, val), labels, ws, true);
      weights[p] = orig - eps;
      const float down = net.forward(view(idx, val), labels, ws, true);
      weights[p] = orig;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grads[p], numeric, 5e-2f * std::max(1.0f, std::abs(numeric)) + 2e-3f)
          << "layer " << li << " weight " << p;
    }
  }
}

TEST(Network, GradientsMatchFiniteDifferencesOnHashedOutput) {
  // Force the full output layer active (min_active = dim) so the sampled
  // softmax equals the full softmax and finite differences are well-defined.
  NetworkConfig cfg = tiny_slide(10, 5, 32);
  cfg.layers.back().lsh.min_active = 32;
  Network net(cfg);
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {2, 7};
  const std::vector<float> val = {1.0f, 0.5f};
  const std::vector<std::uint32_t> labels = {3};

  net.forward(view(idx, val), labels, ws, true);
  ASSERT_EQ(ws.layers.back().active.size(), 32u);
  net.backward(view(idx, val), labels, ws);

  Layer& out = net.layer(1);
  const auto grads = out.weight_gradients();
  auto weights = out.weights_f32();
  for (std::size_t p = 0; p < weights.size(); p += 13) {
    const float orig = weights[p];
    const float eps = 1e-3f;
    weights[p] = orig + eps;
    const float up = net.forward(view(idx, val), labels, ws, true);
    weights[p] = orig - eps;
    const float down = net.forward(view(idx, val), labels, ws, true);
    weights[p] = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grads[p], numeric, 5e-2f * std::max(1.0f, std::abs(numeric)) + 2e-3f)
        << "weight " << p;
  }
}

TEST(Network, PredictTop1IsArgmaxOfFullForward) {
  Network net(tiny_dense());
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {2, 6};
  const std::vector<float> val = {1.0f, 1.0f};
  std::vector<std::uint32_t> top;
  net.predict_topk(view(idx, val), 1, ws, top);
  inference_forward(net.views(), net.precision(), view(idx, val), /*sampled=*/false, ws);
  const auto& logits = ws.layers.back().act;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    EXPECT_LE(logits[j], logits[top[0]]);
  }
}

TEST(Network, PredictTopkOrdering) {
  Network net(tiny_dense(12, 6, 20));
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {0};
  const std::vector<float> val = {1.0f};
  std::vector<std::uint32_t> top;
  net.predict_topk(view(idx, val), 5, ws, top);
  ASSERT_EQ(top.size(), 5u);
  inference_forward(net.views(), net.precision(), view(idx, val), /*sampled=*/false, ws);
  const auto& logits = ws.layers.back().act;
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(logits[top[i - 1]], logits[top[i]]);
  }
  std::vector<std::uint32_t> top1;
  net.predict_topk(view(idx, val), 1, ws, top1);
  EXPECT_EQ(top[0], top1[0]);
}

TEST(Network, TrainingStepReducesLossOnOneExample) {
  Network net(tiny_dense());
  Workspace ws = net.make_workspace();
  const std::vector<std::uint32_t> idx = {1, 7, 10};
  const std::vector<float> val = {1.0f, 2.0f, -1.0f};
  const std::vector<std::uint32_t> labels = {5};
  AdamConfig adam;
  adam.lr = 0.02f;

  const float initial = net.forward(view(idx, val), labels, ws, true);
  for (int step = 0; step < 100; ++step) {
    net.forward(view(idx, val), labels, ws, true);
    net.backward(view(idx, val), labels, ws);
    net.adam_step(adam, nullptr);
  }
  const float final_loss = net.forward(view(idx, val), labels, ws, true);
  EXPECT_LT(final_loss, initial * 0.3f);
}

TEST(Network, AllPrecisionModesRunForwardBackward) {
  for (const Precision p :
       {Precision::Fp32, Precision::Bf16Activations, Precision::Bf16All}) {
    NetworkConfig cfg = tiny_slide();
    cfg.precision = p;
    Network net(cfg);
    Workspace ws = net.make_workspace();
    const std::vector<std::uint32_t> idx = {1, 4};
    const std::vector<float> val = {1.0f, 1.0f};
    const std::vector<std::uint32_t> labels = {9};
    const float loss = net.forward(view(idx, val), labels, ws, true);
    EXPECT_TRUE(std::isfinite(loss));
    net.backward(view(idx, val), labels, ws);
    net.adam_step({}, nullptr);
    std::vector<std::uint32_t> top;
    net.predict_topk(view(idx, val), 1, ws, top);
    EXPECT_LT(top[0], net.output_dim());
  }
}

TEST(Network, Bf16ModesApproximateFp32Forward) {
  const std::vector<std::uint32_t> idx = {1, 4, 8};
  const std::vector<float> val = {1.0f, 0.5f, -0.25f};
  NetworkConfig base = tiny_dense(12, 6, 8);

  Network fp32(base);
  Workspace w0 = fp32.make_workspace();
  fp32.forward(view(idx, val), {}, w0, false);
  const auto ref = w0.layers.back().act;

  for (const Precision p : {Precision::Bf16Activations, Precision::Bf16All}) {
    NetworkConfig cfg = base;
    cfg.precision = p;
    Network net(cfg);
    Workspace ws = net.make_workspace();
    net.forward(view(idx, val), {}, ws, false);
    const auto& got = ws.layers.back().act;
    for (std::size_t j = 0; j < ref.size(); ++j) {
      EXPECT_NEAR(got[j], ref[j], 0.05f) << "precision mode output diverged, j=" << j;
    }
  }
}

// A hashed hidden layer with min_active = 0 can select no neuron.  It then
// computes every neuron, as if it were dense: the next layer reads (and
// backward writes) a full-width activation vector, and an example's loss
// does not depend on what the workspace held before.
TEST(Network, EmptyHiddenSelectionComputesTheLayerDensely) {
  data::SyntheticConfig sc;
  sc.feature_dim = 64;
  sc.label_dim = 10;
  sc.num_train = 200;
  sc.num_test = 1;
  sc.avg_nnz = 6;
  sc.num_clusters = 4;
  sc.seed = 5;
  const auto [train, test] = data::make_xc_datasets(sc);
  for (const std::size_t width : {64u, 512u}) {
    LayerConfig hidden;
    hidden.dim = width;
    hidden.lsh.kind = HashKind::SimHash;
    hidden.lsh.k = 8;
    hidden.lsh.l = 1;
    hidden.lsh.min_active = 0;
    LayerConfig out;
    out.dim = 10;
    out.activation = Activation::Softmax;
    NetworkConfig cfg;
    cfg.input_dim = 64;
    cfg.layers = {hidden, out};
    Network net(cfg);
    Workspace ws = net.make_workspace();
    Workspace other = net.make_workspace();
    std::size_t empty = 0;
    for (std::size_t e = 0; e < train.size(); ++e) {
      const auto x = train.features(e);
      const auto y = train.labels(e);
      const float loss = net.forward(x, y, ws, /*train=*/true);
      if (!ws.layers[0].active.empty()) continue;
      ++empty;
      const auto& act = ws.layers[0].act;
      ASSERT_EQ(act.size(), width) << "example " << e;
      for (std::uint32_t n = 0; n < width; ++n) {
        const float pre = kernels::sparse_dot_f32(x.indices, x.values, x.nnz,
                                                  net.layer(0).row_f32(n)) +
                          net.layer(0).biases()[n];
        ASSERT_EQ(act[n], std::max(0.0f, pre)) << "n=" << n;
      }
      // The same loss from a workspace that last ran another example.
      const std::size_t before = (e + 1) % train.size();
      net.forward(train.features(before), train.labels(before), other, true);
      EXPECT_EQ(net.forward(x, y, other, true), loss) << "example " << e;
      net.backward(x, y, ws);
    }
    EXPECT_GT(empty, 0u) << "width " << width;
  }
}

TEST(Network, HogwildTrainingConvergesWithThreads) {
  // A crude HOGWILD sanity test: many threads hammer the same example; the
  // network must still fit it.
  Network net(tiny_dense());
  const std::vector<std::uint32_t> idx = {1, 7};
  const std::vector<float> val = {1.0f, 2.0f};
  const std::vector<std::uint32_t> labels = {3};
  AdamConfig adam;
  adam.lr = 0.01f;

  ThreadPool pool(4);
  std::vector<Workspace> ws;
  for (unsigned r = 0; r < 4; ++r) ws.push_back(net.make_workspace(r));
  for (int step = 0; step < 20; ++step) {
    pool.parallel_for(4, [&](unsigned rank, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        net.forward(view(idx, val), labels, ws[rank], true);
        net.backward(view(idx, val), labels, ws[rank]);
      }
    });
    net.adam_step(adam, &pool);
  }
  Workspace eval = net.make_workspace();
  std::vector<std::uint32_t> top;
  net.predict_topk(view(idx, val), 1, eval, top);
  EXPECT_EQ(top[0], 3u);
}

}  // namespace
}  // namespace slide
