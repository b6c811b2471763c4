#include "baseline/dense_network.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "pool_guard.h"

namespace slide::baseline {
namespace {

TEST(Baseline, DenseMlpHasNoHashedLayers) {
  const NetworkConfig cfg = make_dense_mlp(64, 16, 32);
  Network net(cfg);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    EXPECT_FALSE(net.layer(i).uses_hashing());
  }
}

TEST(Baseline, ConvergesOnSyntheticTask) {
  const ScopedPoolThreads one_thread(1);
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 300;
  dcfg.label_dim = 60;
  dcfg.num_train = 800;
  dcfg.num_test = 200;
  dcfg.avg_nnz = 12;
  dcfg.num_clusters = 8;
  dcfg.seed = 23;
  auto [train, test] = data::make_xc_datasets(dcfg);

  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 5;
  FullSoftmaxBaseline baseline(train.feature_dim(), 16, train.label_dim(), tcfg);
  const double before = baseline.evaluate_p_at_1(test);
  const TrainResult result = baseline.train(train, test);
  EXPECT_GT(result.final_p_at_1, before + 0.15);
  EXPECT_GT(result.final_p_at_1, 0.35);
}

TEST(Baseline, FullSoftmaxUpdatesEveryOutputRowEachBatch) {
  // After one batch, every output neuron of a dense net must have moved
  // (softmax gradient p_j - y_j is nonzero for essentially all j).
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 100;
  dcfg.label_dim = 30;
  dcfg.num_train = 64;
  dcfg.num_test = 1;
  dcfg.seed = 29;
  auto [train, test] = data::make_xc_datasets(dcfg);
  (void)test;

  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  FullSoftmaxBaseline baseline(train.feature_dim(), 8, train.label_dim(), tcfg);
  Network& net = baseline.network();
  const std::vector<float> before(net.layer(1).weights_f32().begin(),
                                  net.layer(1).weights_f32().end());
  baseline.train_one_epoch(train);
  std::size_t changed_rows = 0;
  for (std::size_t n = 0; n < 30; ++n) {
    bool moved = false;
    for (std::size_t j = 0; j < 8; ++j) {
      moved |= net.layer(1).row_f32(static_cast<std::uint32_t>(n))[j] != before[n * 8 + j];
    }
    changed_rows += moved;
  }
  EXPECT_EQ(changed_rows, 30u);
}

TEST(Baseline, ModeledV100UsesPaperRatios) {
  EXPECT_DOUBLE_EQ(modeled_v100_epoch_seconds(115.0, PaperDataset::Amazon670k), 100.0);
  EXPECT_DOUBLE_EQ(modeled_v100_epoch_seconds(125.0, PaperDataset::Wiki325k), 100.0);
  EXPECT_DOUBLE_EQ(modeled_v100_epoch_seconds(127.0, PaperDataset::Text8), 100.0);
}

TEST(Baseline, PaperDatasetNames) {
  EXPECT_STREQ(paper_dataset_name(PaperDataset::Amazon670k), "Amazon-670K");
  EXPECT_STREQ(paper_dataset_name(PaperDataset::Wiki325k), "WikiLSH-325K");
  EXPECT_STREQ(paper_dataset_name(PaperDataset::Text8), "Text8");
}

}  // namespace
}  // namespace slide::baseline
