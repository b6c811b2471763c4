#include "naive/naive_network.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/network.h"
#include "data/synthetic.h"
#include "naive/naive_trainer.h"
#include "pool_guard.h"

namespace slide {
namespace {

NetworkConfig shared_config(std::size_t input = 50, std::size_t hidden = 12,
                            std::size_t labels = 40) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 8;
  lsh.min_active = 16;
  return make_slide_mlp(input, hidden, labels, lsh, Precision::Fp32, 2024);
}

TEST(Naive, InitializationMatchesOptimizedEngine) {
  const NetworkConfig cfg = shared_config();
  Network opt(cfg);
  naive::NaiveNetwork naive_net(cfg);

  for (std::size_t li = 0; li < 2; ++li) {
    const Layer& ol = opt.layer(li);
    const naive::NaiveLayer& nl = naive_net.layer(li);
    ASSERT_EQ(ol.dim(), nl.dim());
    for (std::uint32_t n = 0; n < ol.dim(); ++n) {
      for (std::size_t j = 0; j < ol.input_dim(); ++j) {
        ASSERT_EQ(ol.weight(n, j), nl.neuron(n).w[j])
            << "layer " << li << " neuron " << n << " weight " << j;
      }
    }
  }
}

TEST(Naive, PredictionsMatchOptimizedEngineAtInit) {
  const NetworkConfig cfg = shared_config();
  Network opt(cfg);
  naive::NaiveNetwork naive_net(cfg);
  Workspace ws = opt.make_workspace();

  const std::uint32_t idx[] = {3, 17, 42};
  const float val[] = {1.0f, -0.5f, 2.0f};
  const data::SparseVectorView x{idx, val, 3};
  std::vector<std::uint32_t> top;
  opt.predict_topk(x, 1, ws, top);
  EXPECT_EQ(top[0], naive_net.predict_top1(x));
}

TEST(Naive, TrainExampleReturnsFiniteLossAndAccumulates) {
  naive::NaiveNetwork net(shared_config());
  const std::uint32_t idx[] = {1, 9};
  const float val[] = {1.0f, 1.0f};
  const std::uint32_t labels[] = {5};
  const float loss = net.train_example({idx, val, 2}, labels);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);

  // Hidden layer neurons must all be dirty (dense layer).
  bool any_grad = false;
  for (std::size_t j = 0; j < net.layer(0).input_dim(); ++j) {
    any_grad |= net.layer(0).neuron(0).g[j] != 0.0f;
  }
  EXPECT_TRUE(any_grad);
}

TEST(Naive, RepeatedTrainingFitsOneExample) {
  naive::NaiveNetwork net(shared_config());
  const std::uint32_t idx[] = {1, 9};
  const float val[] = {1.0f, 1.0f};
  const std::uint32_t labels[] = {5};
  AdamConfig adam;
  adam.lr = 0.01f;
  for (int i = 0; i < 40; ++i) {
    net.train_example({idx, val, 2}, labels);
    net.adam_step(adam, nullptr);
  }
  EXPECT_EQ(net.predict_top1({idx, val, 2}), 5u);
}

TEST(Naive, TrainerConvergesOnSyntheticTask) {
  const ScopedPoolThreads one_thread(1);
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 300;
  dcfg.label_dim = 80;
  dcfg.num_train = 800;
  dcfg.num_test = 200;
  dcfg.avg_nnz = 12;
  dcfg.num_clusters = 8;
  dcfg.seed = 17;
  auto [train, test] = data::make_xc_datasets(dcfg);

  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 10;
  lsh.min_active = 24;
  lsh.rebuild_interval = 16;
  naive::NaiveNetwork net(make_slide_mlp(train.feature_dim(), 16, train.label_dim(), lsh,
                                         Precision::Fp32, 31));

  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 5;
  naive::NaiveTrainer trainer(net, tcfg);
  const double before = trainer.evaluate_p_at_1(test);
  const TrainResult result = trainer.train(train, test);
  EXPECT_GT(result.final_p_at_1, before + 0.1);
  EXPECT_GT(result.final_p_at_1, 0.25);
}

TEST(Naive, AdamStepClearsDirtyAndGradients) {
  naive::NaiveNetwork net(shared_config());
  const std::uint32_t idx[] = {2};
  const float val[] = {1.0f};
  const std::uint32_t labels[] = {3};
  net.train_example({idx, val, 1}, labels);
  net.adam_step({}, nullptr);
  for (std::size_t n = 0; n < net.layer(0).dim(); ++n) {
    for (const float g : net.layer(0).neuron(n).g) EXPECT_EQ(g, 0.0f);
    EXPECT_EQ(net.layer(0).neuron(n).dirty.load(), 0);
  }
}

TEST(Naive, ParamCountMatchesOptimized) {
  const NetworkConfig cfg = shared_config();
  Network opt(cfg);
  naive::NaiveNetwork naive_net(cfg);
  EXPECT_EQ(opt.num_params(), naive_net.num_params());
}

}  // namespace
}  // namespace slide
