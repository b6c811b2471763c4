#include "core/trainer.h"

#include <gtest/gtest.h>

#include <string>

#include "core/metrics.h"
#include "data/synthetic.h"
#include "pool_guard.h"

namespace slide {
namespace {

// A small but learnable extreme-classification task.
std::pair<data::Dataset, data::Dataset> small_task() {
  data::SyntheticConfig cfg;
  cfg.feature_dim = 400;
  cfg.label_dim = 120;
  cfg.num_train = 1500;
  cfg.num_test = 300;
  cfg.avg_nnz = 15;
  cfg.num_clusters = 12;
  cfg.noise_fraction = 0.1;
  cfg.seed = 7;
  return data::make_xc_datasets(cfg);
}

NetworkConfig slide_config(std::size_t input, std::size_t labels) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 10;
  lsh.min_active = 32;
  lsh.bucket_capacity = 64;
  lsh.rebuild_interval = 16;
  return make_slide_mlp(input, 24, labels, lsh, Precision::Fp32, 99);
}

TEST(Trainer, SlideP1ImprovesWithTraining) {
  const ScopedPoolThreads one_thread(1);
  auto [train, test] = small_task();
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 6;
  Trainer trainer(net, tcfg);

  const double before = trainer.evaluate_p_at_1(test);
  const TrainResult result = trainer.train(train, test);
  ASSERT_EQ(result.history.size(), 6u);
  EXPECT_GT(result.final_p_at_1, before + 0.15)
      << "before=" << before << " after=" << result.final_p_at_1;
  EXPECT_GT(result.final_p_at_1, 0.3);
}

TEST(Trainer, LossDecreasesAcrossEpochs) {
  auto [train, test] = small_task();
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 4;
  Trainer trainer(net, tcfg);
  const TrainResult result = trainer.train(train, test);
  EXPECT_LT(result.history.back().avg_loss, result.history.front().avg_loss);
}

TEST(Trainer, HistoryBookkeepingIsConsistent) {
  auto [train, test] = small_task();
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.epochs = 3;
  Trainer trainer(net, tcfg);
  const TrainResult result = trainer.train(train, test);
  ASSERT_EQ(result.history.size(), 3u);
  double cum = 0;
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(result.history[e].epoch, e + 1);
    EXPECT_GT(result.history[e].train_seconds, 0.0);
    cum += result.history[e].train_seconds;
    EXPECT_NEAR(result.history[e].cumulative_seconds, cum, 1e-9);
  }
  EXPECT_NEAR(result.avg_epoch_seconds, cum / 3, 1e-9);
  EXPECT_EQ(result.final_p_at_1, result.history.back().p_at_1);
}

TEST(Trainer, SingleThreadDeterminism) {
  const ScopedPoolThreads one_thread(1);
  auto [train, test] = small_task();

  auto run = [&]() {
    Network net(slide_config(train.feature_dim(), train.label_dim()));
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    tcfg.epochs = 1;
    tcfg.seed = 5;
    Trainer trainer(net, tcfg);
    trainer.train_one_epoch(train);
    return std::vector<float>(net.layer(1).weights_f32().begin(),
                              net.layer(1).weights_f32().end());
  };
  const auto w1 = run();
  const auto w2 = run();
  EXPECT_EQ(w1, w2);
}

TEST(Trainer, EvalCapsExamples) {
  auto [train, test] = small_task();
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  Trainer trainer(net, {});
  // Smoke: evaluating a 10-example cap must be fast and in [0, 1].
  const double p = trainer.evaluate_p_at_1(test, 10);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(Trainer, AdamStepCountAdvancesPerBatch) {
  auto [train, test] = small_task();
  (void)test;
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 100;
  Trainer trainer(net, tcfg);
  trainer.train_one_epoch(train);
  EXPECT_EQ(net.adam_steps(), (train.size() + 99) / 100);
}

// slide_train_active_set_avg counts the output neurons each example
// computed: every neuron of a dense output layer, the sampled active set
// (at least min_active) of a hashed one.
TEST(Trainer, ActiveSetGaugeCountsComputedOutputNeurons) {
  auto [train, test] = small_task();
  const auto active_set_avg = [&](const NetworkConfig& cfg) {
    Network net(cfg);
    obs::MetricsRegistry reg;
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    tcfg.epochs = 1;
    tcfg.eval_max_examples = 10;
    tcfg.metrics = &reg;
    Trainer trainer(net, tcfg);
    trainer.train(train, test);
    return reg.gauge("slide_train_active_set_avg", "").value();
  };
  EXPECT_EQ(active_set_avg(make_dense_mlp(train.feature_dim(), 24, train.label_dim())),
            static_cast<double>(train.label_dim()));
  const NetworkConfig hashed = slide_config(train.feature_dim(), train.label_dim());
  const double avg = active_set_avg(hashed);
  EXPECT_GE(avg, static_cast<double>(hashed.layers.back().lsh.min_active));
  EXPECT_LE(avg, static_cast<double>(train.label_dim()));
}

// The per-layer table gauges read back what the hashed layer's tables hold
// after the epoch's last rebuild.
TEST(Trainer, TableGaugesDescribeEachHashedLayer) {
  auto [train, test] = small_task();
  NetworkConfig cfg = slide_config(train.feature_dim(), train.label_dim());
  cfg.layers.back().lsh.bucket_capacity = static_cast<std::uint32_t>(train.label_dim());
  Network net(cfg);  // no bucket can overflow: every neuron stays in every table
  obs::MetricsRegistry reg;
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.epochs = 1;
  tcfg.eval_max_examples = 10;
  tcfg.metrics = &reg;
  Trainer trainer(net, tcfg);
  trainer.train(train, test);

  std::size_t hashed = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const lsh::LshTables* tables = net.layer(i).tables();
    if (tables == nullptr) continue;
    ++hashed;
    SCOPED_TRACE(::testing::Message() << "layer " << i);
    const obs::Labels labels = {{"layer", std::to_string(i)}};
    const double entries = reg.gauge("slide_lsh_table_entries", "", labels).value();
    const double occupancy = reg.gauge("slide_lsh_bucket_occupancy", "", labels).value();
    const double avg = reg.gauge("slide_lsh_avg_bucket_size", "", labels).value();
    const double bytes = reg.gauge("slide_lsh_table_bytes", "", labels).value();
    const double buckets =
        static_cast<double>(tables->num_tables()) * static_cast<double>(tables->bucket_range());

    EXPECT_EQ(entries, static_cast<double>(net.layer(i).dim() * tables->num_tables()));
    EXPECT_GT(occupancy, 0.0);
    EXPECT_LE(occupancy, 1.0);
    EXPECT_NEAR(avg * occupancy * buckets, entries, 1e-6 * entries);
    // An 8-byte head and two u32 counters per bucket, 4 B per arena slot;
    // after a rebuild each bucket has exactly one slot per id.
    EXPECT_GE(bytes, 4 * entries);
    EXPECT_LE(bytes, 16 * buckets + 4 * entries);
  }
  EXPECT_EQ(hashed, 1u);
}

TEST(Trainer, ShuffleModesAllConverge) {
  const ScopedPoolThreads one_thread(1);
  auto [train, test] = small_task();
  for (const ShuffleMode mode :
       {ShuffleMode::None, ShuffleMode::Batches, ShuffleMode::Examples}) {
    Network net(slide_config(train.feature_dim(), train.label_dim()));
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    tcfg.adam.lr = 2e-3f;
    tcfg.epochs = 4;
    tcfg.shuffle = mode;
    Trainer trainer(net, tcfg);
    const TrainResult r = trainer.train(train, test);
    EXPECT_GT(r.final_p_at_1, 0.25) << "mode " << static_cast<int>(mode);
  }
}

TEST(Trainer, ExampleShuffleIsDeterministicSingleThread) {
  const ScopedPoolThreads one_thread(1);
  auto [train, test] = small_task();
  (void)test;
  const auto run = [&]() {
    Network net(slide_config(train.feature_dim(), train.label_dim()));
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    tcfg.shuffle = ShuffleMode::Examples;
    tcfg.seed = 9;
    Trainer trainer(net, tcfg);
    trainer.train_one_epoch(train);
    return std::vector<float>(net.layer(1).weights_f32().begin(),
                              net.layer(1).weights_f32().end());
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, ShuffleModesVisitEveryExampleOncePerEpoch) {
  // Loss is summed over exactly n examples regardless of ordering policy, so
  // average loss across modes on an untrained net (lr=0) is identical.
  auto [train, test] = small_task();
  (void)test;
  NetworkConfig ncfg = slide_config(train.feature_dim(), train.label_dim());
  // Full active set: per-example loss becomes a pure function of the
  // (frozen) weights, so epoch averages must agree exactly across orderings.
  ncfg.layers.back().lsh.min_active = train.label_dim();
  double losses[3];
  int i = 0;
  for (const ShuffleMode mode :
       {ShuffleMode::None, ShuffleMode::Batches, ShuffleMode::Examples}) {
    Network net(ncfg);
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    tcfg.adam.lr = 0.0f;  // no learning: loss depends only on coverage
    tcfg.shuffle = mode;
    Trainer trainer(net, tcfg);
    trainer.train_one_epoch(train);
    losses[i++] = trainer.last_avg_loss();
  }
  // Tolerance covers float summation-order differences across threads.
  EXPECT_NEAR(losses[0], losses[1], 1e-4);
  EXPECT_NEAR(losses[0], losses[2], 1e-4);
}

TEST(Trainer, PrecisionAtKEvaluation) {
  auto [train, test] = small_task();
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 4;
  Trainer trainer(net, tcfg);
  trainer.train(train, test);

  const double p1 = trainer.evaluate_p_at_k(test, 1, 200);
  const double p1_ref = trainer.evaluate_p_at_1(test, 200);
  EXPECT_NEAR(p1, p1_ref, 1e-9);  // k=1 must agree with the dedicated path

  const double p5 = trainer.evaluate_p_at_k(test, 5, 200);
  EXPECT_GT(p5, 0.0);
  EXPECT_LE(p5, 1.0);
  EXPECT_EQ(trainer.evaluate_p_at_k(test, 0, 200), 0.0);
}

// evaluate_p_at_k runs each pool chunk as one query block; it must score
// exactly what a per-query predict_topk loop scores, on one thread and on
// four, over the whole set and under a cap that ends inside a block.  Each
// test example is labelled with its own top-1 neuron, so every query adds
// to the score, and a query the blocks skip or mis-rank shows.  At k = 1
// and k = 4 every per-example precision is a binary fraction, so the sums
// are exact in any order.  The 70000-label model runs blocks of 16 too,
// its output ranked in tiles of kOutputTileRows rows, the last one partial.
TEST(Trainer, BlockedEvalEqualsPerQueryLoop) {
  for (const std::size_t labels : {120u, 70000u}) {
    data::SyntheticConfig cfg;
    cfg.feature_dim = 400;
    cfg.label_dim = labels;
    cfg.num_train = 1500;
    cfg.num_test = 300;
    cfg.avg_nnz = 15;
    cfg.num_clusters = 12;
    cfg.noise_fraction = 0.1;
    cfg.seed = 7;
    auto [train, test] = data::make_xc_datasets(cfg);
    Network net(slide_config(train.feature_dim(), train.label_dim()));
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    {
      const ScopedPoolThreads one_thread(1);
      Trainer(net, tcfg).train_one_epoch(train);
    }
    Workspace ws = net.make_workspace();
    std::vector<std::uint32_t> topk;
    data::Dataset own(test.feature_dim(), test.label_dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
      const data::SparseVectorView x = test.features(i);
      net.predict_topk(x, 1, ws, topk);
      own.add({x.indices, x.nnz}, {x.values, x.nnz}, topk);
    }
    for (const unsigned threads : {1u, 4u}) {
      const ScopedPoolThreads pool(threads);
      Trainer trainer(net, tcfg);
      for (const std::size_t k : {1u, 4u}) {
        for (const std::size_t max : {0u, 37u}) {
          const std::size_t n = max == 0 ? own.size() : max;
          double sum = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            net.predict_topk(own.features(i), k, ws, topk);
            sum += precision_at_k(topk, own.labels(i));
          }
          EXPECT_EQ(sum, static_cast<double>(n) / static_cast<double>(k));
          EXPECT_EQ(trainer.evaluate_p_at_k(own, k, max), sum / static_cast<double>(n))
              << "labels=" << labels << " threads=" << threads << " k=" << k
              << " max=" << max;
        }
      }
    }
  }
}

TEST(Trainer, WorksWithFragmentedLayout) {
  const ScopedPoolThreads one_thread(1);
  auto [train, test] = small_task();
  const data::Dataset frag_train = train.with_layout(data::Layout::Fragmented);
  Network net(slide_config(train.feature_dim(), train.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 2;
  Trainer trainer(net, tcfg);
  const TrainResult r = trainer.train(frag_train, test);
  EXPECT_GT(r.final_p_at_1, 0.1);
}

}  // namespace
}  // namespace slide
