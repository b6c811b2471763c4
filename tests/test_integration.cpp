// Cross-module integration tests: the three engines (optimized SLIDE, naive
// SLIDE, dense baseline) trained on the same workload, plus the system-level
// properties the paper's evaluation depends on.
#include <gtest/gtest.h>

#include "baseline/dense_network.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/svm_reader.h"
#include "data/synthetic.h"
#include "data/text_corpus.h"
#include "kernels/kernels.h"
#include "naive/naive_trainer.h"
#include "pool_guard.h"

namespace slide {
namespace {

struct Task {
  data::Dataset train;
  data::Dataset test;
};

Task make_task() {
  data::SyntheticConfig cfg;
  cfg.feature_dim = 500;
  cfg.label_dim = 150;
  cfg.num_train = 1200;
  cfg.num_test = 300;
  cfg.avg_nnz = 15;
  cfg.num_clusters = 12;
  cfg.seed = 1234;
  auto [train, test] = data::make_xc_datasets(cfg);
  return {std::move(train), std::move(test)};
}

LshLayerConfig task_lsh() {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 10;
  lsh.min_active = 32;
  lsh.rebuild_interval = 16;
  return lsh;
}

TrainerConfig task_trainer() {
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 5;
  return tcfg;
}

TEST(Integration, AllThreeEnginesReachSimilarAccuracy) {
  const ScopedPoolThreads one_thread(1);
  const Task task = make_task();
  const TrainerConfig tcfg = task_trainer();

  Network opt_net(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(),
                                 task_lsh(), Precision::Fp32, 5));
  Trainer opt_trainer(opt_net, tcfg);
  const double opt = opt_trainer.train(task.train, task.test).final_p_at_1;

  naive::NaiveNetwork naive_net(make_slide_mlp(task.train.feature_dim(), 24,
                                               task.train.label_dim(), task_lsh(),
                                               Precision::Fp32, 5));
  naive::NaiveTrainer naive_trainer(naive_net, tcfg);
  const double nai = naive_trainer.train(task.train, task.test).final_p_at_1;

  baseline::FullSoftmaxBaseline dense(task.train.feature_dim(), 24, task.train.label_dim(),
                                      tcfg, Precision::Fp32, 5);
  const double den = dense.train(task.train, task.test).final_p_at_1;

  // All engines learn the task; the sparse engines track the dense one
  // within a modest margin (the paper's "similar P@1" claim).
  EXPECT_GT(opt, 0.3);
  EXPECT_GT(nai, 0.3);
  EXPECT_GT(den, 0.3);
  EXPECT_NEAR(opt, den, 0.15);
  EXPECT_NEAR(opt, nai, 0.15);
}

TEST(Integration, SlideTouchesFarFewerOutputNeuronsThanDense) {
  // The algorithmic heart of the paper: per example, SLIDE computes a small
  // active set instead of all output neurons.
  const Task task = make_task();
  LshLayerConfig lsh = task_lsh();
  lsh.max_active = 48;
  Network net(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(), lsh,
                             Precision::Fp32, 5));
  Workspace ws = net.make_workspace();
  std::size_t total_active = 0;
  const std::size_t probes = 50;
  for (std::size_t i = 0; i < probes; ++i) {
    net.forward(task.train.features(i), task.train.labels(i), ws, true);
    total_active += ws.layers.back().active.size();
  }
  const double avg_active = static_cast<double>(total_active) / probes;
  EXPECT_LT(avg_active, 0.40 * static_cast<double>(task.train.label_dim()));
  EXPECT_GE(avg_active, lsh.min_active);
}

TEST(Integration, Bf16ModesTrainToComparableAccuracy) {
  const ScopedPoolThreads one_thread(1);
  const Task task = make_task();
  const TrainerConfig tcfg = task_trainer();
  double p[3];
  const Precision modes[3] = {Precision::Fp32, Precision::Bf16Activations,
                              Precision::Bf16All};
  for (int m = 0; m < 3; ++m) {
    Network net(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(),
                               task_lsh(), modes[m], 5));
    Trainer trainer(net, tcfg);
    p[m] = trainer.train(task.train, task.test).final_p_at_1;
  }
  EXPECT_GT(p[0], 0.3);
  // Quantized modes stay within a few points of fp32 (Table 3's premise
  // that BF16 "maintains accuracy").
  EXPECT_NEAR(p[1], p[0], 0.12);
  EXPECT_NEAR(p[2], p[0], 0.15);
}

TEST(Integration, TrainingConvergesOnEveryBackend) {
  const ScopedPoolThreads one_thread(1);
  const Task task = make_task();
  TrainerConfig tcfg = task_trainer();
  tcfg.epochs = 3;

  const kernels::Isa ambient = kernels::active_isa();
  for (const kernels::Isa isa : kernels::available_isas()) {
    ASSERT_TRUE(kernels::set_isa(isa));
    for (const Precision precision : {Precision::Fp32, Precision::Bf16All}) {
      Network net(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(),
                                 task_lsh(), precision, 5));
      Trainer trainer(net, tcfg);
      const double p = trainer.train(task.train, task.test).final_p_at_1;
      EXPECT_GT(p, 0.25) << "isa=" << kernels::isa_name(isa)
                         << " precision=" << static_cast<int>(precision);
    }
  }
  kernels::set_isa(ambient);
}

TEST(Integration, CoalescedAndFragmentedLayoutsGiveSameResults) {
  // Memory layout is a performance knob, never a semantics knob.
  const ScopedPoolThreads one_thread(1);  // exact reproducibility
  const Task task = make_task();
  const data::Dataset frag = task.train.with_layout(data::Layout::Fragmented);

  const auto run = [&](const data::Dataset& train) {
    Network net(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(),
                               task_lsh(), Precision::Fp32, 5));
    TrainerConfig tcfg = task_trainer();
    tcfg.epochs = 1;
    Trainer trainer(net, tcfg);
    trainer.train_one_epoch(train);
    return std::vector<float>(net.layer(0).weights_f32().begin(),
                              net.layer(0).weights_f32().end());
  };
  EXPECT_EQ(run(task.train), run(frag));
}

TEST(Integration, TrainCheckpointResumeMatchesContinuousTraining) {
  const ScopedPoolThreads one_thread(1);
  const Task task = make_task();
  TrainerConfig tcfg = task_trainer();
  tcfg.epochs = 1;

  // Continuous: two epochs.
  Network continuous(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(),
                                    task_lsh(), Precision::Fp32, 5));
  {
    Trainer t(continuous, tcfg);
    t.train_one_epoch(task.train);
    t.train_one_epoch(task.train);
  }

  // Checkpointed: one epoch, save, load, one more epoch.
  Network first(make_slide_mlp(task.train.feature_dim(), 24, task.train.label_dim(),
                               task_lsh(), Precision::Fp32, 5));
  {
    Trainer t(first, tcfg);
    t.train_one_epoch(task.train);
  }
  std::stringstream buffer;
  save_network(first, buffer);
  Network resumed = load_network(buffer);
  {
    Trainer t(resumed, tcfg);
    t.train_one_epoch(task.train);
  }
  // Note: the resumed trainer re-starts its shuffle stream, so exact equality
  // only holds with shuffling off; check convergence instead.
  Workspace wc = continuous.make_workspace();
  Workspace wr = resumed.make_workspace();
  std::size_t agree = 0;
  const std::size_t probes = 100;
  std::vector<std::uint32_t> tc, tr;
  for (std::size_t i = 0; i < probes; ++i) {
    continuous.predict_topk(task.test.features(i), 1, wc, tc);
    resumed.predict_topk(task.test.features(i), 1, wr, tr);
    agree += tc == tr;
  }
  EXPECT_GT(agree, probes / 2);
}

TEST(Integration, SkipgramWorkloadTrainsEndToEnd) {
  const ScopedPoolThreads one_thread(1);
  data::CorpusConfig ccfg;
  ccfg.vocab_size = 300;
  ccfg.num_tokens = 6000;
  ccfg.num_topics = 6;
  auto [train, test] = data::make_skipgram_datasets(ccfg, 0.9);

  LshLayerConfig lsh;
  lsh.kind = HashKind::SimHash;
  lsh.k = 5;
  lsh.l = 8;
  lsh.min_active = 32;
  lsh.rebuild_interval = 16;
  Network net(make_slide_mlp(train.feature_dim(), 20, train.label_dim(), lsh,
                             Precision::Fp32, 8));
  TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 3;
  Trainer trainer(net, tcfg);
  const TrainResult r = trainer.train(train, test);
  // Zipf head + topical coherence make skip-gram predictable well above the
  // uniform-rate floor.
  EXPECT_GT(r.final_p_at_1, 0.05);
  EXPECT_LT(r.history.back().avg_loss, r.history.front().avg_loss);
}

TEST(Integration, XcFileToTrainingPipeline) {
  const ScopedPoolThreads one_thread(1);
  // Dataset -> XC file -> reader -> trainer: the full user path.
  const Task task = make_task();
  std::stringstream file;
  data::write_xc(file, task.train);
  const data::Dataset loaded = data::read_xc(file);
  ASSERT_EQ(loaded.size(), task.train.size());

  Network net(make_slide_mlp(loaded.feature_dim(), 24, loaded.label_dim(), task_lsh(),
                             Precision::Fp32, 5));
  TrainerConfig tcfg = task_trainer();
  tcfg.epochs = 2;
  Trainer trainer(net, tcfg);
  const TrainResult r = trainer.train(loaded, task.test);
  EXPECT_GT(r.final_p_at_1, 0.2);
}

}  // namespace
}  // namespace slide
