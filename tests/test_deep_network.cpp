// Deep SLIDE: stacked hashed layers (the compact sparse-to-sparse
// propagation path — Algorithm 2's gather form in backprop_to_sparse).
#include <gtest/gtest.h>

#include <cmath>

#include "core/network.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "pool_guard.h"

namespace slide {
namespace {

// input -> dense ReLU -> HASHED ReLU (middle) -> HASHED softmax (output).
NetworkConfig deep_config(std::size_t input_dim, std::size_t labels, bool full_active) {
  NetworkConfig cfg;
  cfg.input_dim = input_dim;
  cfg.seed = 321;

  LayerConfig h1;
  h1.dim = 16;
  h1.activation = Activation::ReLU;
  cfg.layers.push_back(h1);

  LayerConfig h2;
  h2.dim = 64;
  h2.activation = Activation::ReLU;
  h2.lsh.kind = HashKind::Dwta;
  h2.lsh.k = 3;
  h2.lsh.l = 6;
  h2.lsh.min_active = full_active ? 64 : 24;
  cfg.layers.push_back(h2);

  LayerConfig out;
  out.dim = 50;
  out.activation = Activation::Softmax;
  out.lsh.kind = HashKind::Dwta;
  out.lsh.k = 3;
  out.lsh.l = 6;
  out.lsh.min_active = full_active ? 50 : 16;
  cfg.layers.push_back(out);
  return cfg;
}

data::SparseVectorView sample_input() {
  static const std::uint32_t idx[] = {2, 9, 17};
  static const float val[] = {1.0f, -0.5f, 0.75f};
  return {idx, val, 3};
}

TEST(DeepNetwork, ForwardThroughStackedHashedLayers) {
  Network net(deep_config(24, 50, false));
  Workspace ws = net.make_workspace();
  const std::uint32_t labels[] = {11};
  const float loss = net.forward(sample_input(), labels, ws, true);
  EXPECT_TRUE(std::isfinite(loss));
  // Middle layer ran sparse: its active set is a strict subset.
  EXPECT_GE(ws.layers[1].active.size(), 24u);
  EXPECT_LT(ws.layers[1].active.size(), 64u);
  // Output probabilities over its active set sum to 1.
  float sum = 0;
  for (const float p : ws.layers[2].act) sum += p;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(DeepNetwork, GradientsMatchFiniteDifferencesThroughSparseMiddle) {
  // Full active sets make the sampled network a deterministic function so
  // finite differences are valid — but the code path exercised is still the
  // compact sparse-prev one (active lists are in play).
  Network net(deep_config(24, 50, /*full_active=*/true));
  Workspace ws = net.make_workspace();
  const std::uint32_t labels[] = {11, 3};

  net.forward(sample_input(), labels, ws, true);
  ASSERT_EQ(ws.layers[1].active.size(), 64u);
  net.backward(sample_input(), labels, ws);

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    Layer& L = net.layer(li);
    const auto grads = L.weight_gradients();
    auto weights = L.weights_f32();
    const std::size_t stride = std::max<std::size_t>(1, weights.size() / 23);
    for (std::size_t p = 0; p < weights.size(); p += stride) {
      const float orig = weights[p];
      const float eps = 1e-3f;
      weights[p] = orig + eps;
      const float up = net.forward(sample_input(), labels, ws, true);
      weights[p] = orig - eps;
      const float down = net.forward(sample_input(), labels, ws, true);
      weights[p] = orig;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grads[p], numeric, 5e-2f * std::max(1.0f, std::abs(numeric)) + 2e-3f)
          << "layer " << li << " weight " << p;
    }
  }
}

TEST(DeepNetwork, PredictSeesAllNeuronsDespiteSparseTraining) {
  Network net(deep_config(24, 50, false));
  Workspace ws = net.make_workspace();
  std::vector<std::uint32_t> top;
  net.predict_topk(sample_input(), 1, ws, top);
  EXPECT_LT(top[0], 50u);
  EXPECT_EQ(ws.layers[1].act.size(), 64u);  // dense eval through middle layer
}

TEST(DeepNetwork, TrainsOnSyntheticTask) {
  // A 1-thread pool makes the run reproducible: on more threads HOGWILD
  // scheduling moves P@1 by several points from run to run.
  const ScopedPoolThreads one_thread(1);

  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 200;
  dcfg.label_dim = 50;
  dcfg.num_train = 600;
  dcfg.num_test = 150;
  dcfg.avg_nnz = 10;
  dcfg.num_clusters = 8;
  dcfg.seed = 77;
  auto [train, test] = data::make_xc_datasets(dcfg);

  NetworkConfig cfg = deep_config(train.feature_dim(), train.label_dim(), false);
  Network net(cfg);
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 3e-3f;
  tcfg.epochs = 6;
  Trainer trainer(net, tcfg);
  const TrainResult r = trainer.train(train, test);
  EXPECT_GT(r.final_p_at_1, 0.3);
  EXPECT_LT(r.history.back().avg_loss, r.history.front().avg_loss);
}

TEST(DeepNetwork, LinearHiddenGradCheck) {
  // Linear hidden layer (word2vec projection): gradient check must hold
  // without any ReLU mask.
  NetworkConfig cfg = make_dense_mlp(16, 8, 12, Precision::Fp32, 5);
  cfg.layers[0].activation = Activation::Linear;
  Network net(cfg);
  Workspace ws = net.make_workspace();
  const std::uint32_t idx[] = {3};
  const float val[] = {1.0f};
  const data::SparseVectorView x{idx, val, 1};
  const std::uint32_t labels[] = {7};

  net.forward(x, labels, ws, true);
  net.backward(x, labels, ws);

  Layer& L = net.layer(0);
  const auto grads = L.weight_gradients();
  auto weights = L.weights_f32();
  for (std::size_t p = 0; p < weights.size(); p += 5) {
    const float orig = weights[p];
    const float eps = 1e-3f;
    weights[p] = orig + eps;
    const float up = net.forward(x, labels, ws, true);
    weights[p] = orig - eps;
    const float down = net.forward(x, labels, ws, true);
    weights[p] = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grads[p], numeric, 5e-2f * std::max(1.0f, std::abs(numeric)) + 2e-3f) << p;
  }
}

}  // namespace
}  // namespace slide
