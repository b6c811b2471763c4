// Incremental hash-table maintenance (paper Section 2's
// delete-and-reinsert), against the full-rebuild reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "lsh/lsh_table.h"
#include "pool_guard.h"

namespace slide {
namespace {

LayerConfig hashed_cfg(std::size_t dim, LshMaintenance maintenance) {
  LayerConfig cfg;
  cfg.dim = dim;
  cfg.activation = Activation::Softmax;
  cfg.lsh.kind = HashKind::Dwta;
  cfg.lsh.k = 3;
  cfg.lsh.l = 8;
  cfg.lsh.bucket_capacity = 10000;  // no eviction: contents are exact sets
  cfg.lsh.rebuild_interval = 1;
  cfg.lsh.rebuild_growth = 1.0;
  cfg.lsh.maintenance = maintenance;
  return cfg;
}

std::multiset<std::uint32_t> bucket_set(const lsh::LshTables& t, std::size_t table,
                                        std::uint32_t bucket) {
  const auto ids = t.bucket(table, bucket);
  return {ids.begin(), ids.end()};
}

// Applies the same deterministic perturbation to neuron n of both layers
// and marks it dirty/touched.
void perturbed_row(Layer& a, Layer& b, std::uint32_t n, int round) {
  const std::size_t m = a.input_dim();
  auto wa = a.weights_f32();
  auto wb = b.weights_f32();
  for (std::size_t j = 0; j < m; ++j) {
    const float delta = 0.2f * static_cast<float>((n + j + round) % 5) - 0.4f;
    wa[n * m + j] += delta;
    wb[n * m + j] += delta;
  }
  a.mark_dirty(n);
  b.mark_dirty(n);
}

TEST(IncrementalLsh, EraseOneRemovesExactlyOneOccurrence) {
  lsh::LshTables t(2, 8);
  const std::uint32_t buckets[] = {3, 5};
  t.insert(7, buckets);
  t.insert(9, buckets);
  EXPECT_TRUE(t.erase_one(0, 3, 7));
  EXPECT_EQ(t.bucket(0, 3).size(), 1u);
  EXPECT_EQ(t.bucket(0, 3)[0], 9u);
  EXPECT_EQ(t.bucket(1, 5).size(), 2u);  // other table untouched
  EXPECT_FALSE(t.erase_one(0, 3, 7));    // already gone
}

TEST(IncrementalLsh, InsertOneAddsToSingleTable) {
  lsh::LshTables t(3, 8);
  t.insert_one(1, 4, 42);
  EXPECT_TRUE(t.bucket(0, 4).empty());
  EXPECT_EQ(t.bucket(1, 4).size(), 1u);
  EXPECT_TRUE(t.bucket(2, 4).empty());
}

TEST(IncrementalLsh, EraseOneValidatesBucketRange) {
  lsh::LshTables t(1, 8);
  EXPECT_THROW(t.erase_one(0, 8, 1), std::out_of_range);
  EXPECT_THROW(t.insert_one(0, 8, 1), std::out_of_range);
}

TEST(IncrementalLsh, UpdateMatchesFullRebuildAsSets) {
  // Two identical layers; one maintained incrementally, one rebuilt.  With
  // unlimited bucket capacity their table contents must agree as sets.
  Layer inc(24, hashed_cfg(48, LshMaintenance::Incremental), Precision::Fp32, 99);
  Layer reb(24, hashed_cfg(48, LshMaintenance::Rebuild), Precision::Fp32, 99);
  inc.rebuild_tables(nullptr);
  reb.rebuild_tables(nullptr);

  for (int round = 0; round < 3; ++round) {
    // Touch half the neurons (mark_dirty drives the incremental scan).
    for (std::uint32_t n = 0; n < 48; n += 2) {
      perturbed_row(inc, reb, n, round);
    }
    inc.on_batch_end(nullptr);
    reb.on_batch_end(nullptr);

    const auto* ti = inc.tables();
    const auto* tr = reb.tables();
    for (std::size_t table = 0; table < ti->num_tables(); ++table) {
      for (std::uint32_t b = 0; b < ti->bucket_range(); ++b) {
        ASSERT_EQ(bucket_set(*ti, table, b), bucket_set(*tr, table, b))
            << "round " << round << " table " << table << " bucket " << b;
      }
    }
  }
}

TEST(IncrementalLsh, UntouchedNeuronsAreNotRehashed) {
  Layer L(16, hashed_cfg(32, LshMaintenance::Incremental), Precision::Fp32, 7);
  L.rebuild_tables(nullptr);

  // Change weights WITHOUT marking dirty: incremental maintenance must not
  // notice (this is the documented contract — rebuilds are the safety net).
  auto w = L.weights_f32();
  for (auto& v : w) v = -v;
  const auto before = bucket_set(*L.tables(), 0, 0);
  L.incremental_update(nullptr);
  EXPECT_EQ(bucket_set(*L.tables(), 0, 0), before);
}

TEST(IncrementalLsh, TrainingConvergesWithIncrementalMaintenance) {
  const ScopedPoolThreads one_thread(1);
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 300;
  dcfg.label_dim = 80;
  dcfg.num_train = 800;
  dcfg.num_test = 200;
  dcfg.avg_nnz = 12;
  dcfg.num_clusters = 8;
  dcfg.seed = 55;
  auto [train, test] = data::make_xc_datasets(dcfg);

  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 10;
  lsh.min_active = 24;
  lsh.rebuild_interval = 8;
  lsh.maintenance = LshMaintenance::Incremental;
  Network net(make_slide_mlp(train.feature_dim(), 16, train.label_dim(), lsh,
                             Precision::Fp32, 31));
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 5;
  Trainer trainer(net, tcfg);
  const TrainResult r = trainer.train(train, test);
  EXPECT_GT(r.final_p_at_1, 0.25);
}

TEST(IncrementalLsh, FallsBackToRebuildWhenNotConfigured) {
  // incremental_update on a Rebuild-mode layer degrades gracefully to a
  // full rebuild (still correct, just not incremental).
  Layer L(16, hashed_cfg(32, LshMaintenance::Rebuild), Precision::Fp32, 13);
  L.rebuild_tables(nullptr);
  auto w = L.weights_f32();
  for (auto& v : w) v = -v;
  L.incremental_update(nullptr);  // acts as rebuild
  // All 32 neurons must still be present across each table.
  std::size_t total = 0;
  for (std::size_t t = 0; t < L.tables()->num_tables(); ++t) {
    total += L.tables()->stats(t).total_entries;
  }
  EXPECT_EQ(total, 32u * L.tables()->num_tables());
}

}  // namespace
}  // namespace slide
