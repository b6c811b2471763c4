#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/network.h"
#include "core/serialize.h"
#include "core/serialize_io.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "threading/thread_pool.h"
#include "util/crc32c.h"

namespace slide {
namespace {

NetworkConfig sample_config(Precision precision = Precision::Fp32) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 8;
  lsh.min_active = 24;
  return make_slide_mlp(60, 16, 80, lsh, precision, 1234);
}

// A briefly trained network so the packed snapshot is not just the init.
Network trained_network(const NetworkConfig& cfg) {
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 60;
  dcfg.label_dim = cfg.layers.back().dim;
  dcfg.num_train = 400;
  dcfg.num_test = 50;
  dcfg.avg_nnz = 10;
  dcfg.num_clusters = 8;
  dcfg.seed = 99;
  auto [train, test] = data::make_xc_datasets(dcfg);
  Network net(cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 64;
  Trainer trainer(net, tcfg);
  trainer.train_one_epoch(train);
  net.rebuild_hash_tables(nullptr);
  return net;
}

Network trained_network(Precision precision = Precision::Fp32) {
  return trained_network(sample_config(precision));
}

data::Dataset query_set(std::size_t n = 64) {
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 60;
  dcfg.label_dim = 80;
  dcfg.num_train = n;
  dcfg.num_test = 1;
  dcfg.avg_nnz = 10;
  dcfg.num_clusters = 8;
  dcfg.seed = 7;
  return data::make_xc_datasets(dcfg).first;
}

TEST(PackedModel, FreezeKeepsWeightsBitExact) {
  const Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  ASSERT_EQ(pm.num_layers(), net.num_layers());
  EXPECT_EQ(pm.precision(), Precision::Fp32);
  EXPECT_EQ(pm.num_params(), net.num_params());
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    const auto& L = pm.layer(i);
    const auto src = net.layer(i).weights_f32();
    ASSERT_EQ(L.w.size(), src.size());
    EXPECT_EQ(0, std::memcmp(L.w.data(), src.data(), src.size() * sizeof(float)));
    const auto bias = net.layer(i).biases();
    EXPECT_EQ(0, std::memcmp(L.bias.data(), bias.data(), bias.size() * sizeof(float)));
  }
  // Output layer froze its LSH state; hidden layer is dense.
  EXPECT_FALSE(pm.layer(0).uses_hashing());
  EXPECT_TRUE(pm.layer(1).uses_hashing());
}

TEST(PackedModel, DenseTopKBitIdenticalToNetwork) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set();
  Workspace ws = net.make_workspace();
  std::vector<std::uint32_t> want, got;
  std::vector<float> scores;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    net.predict_topk(queries.features(i), 10, ws, want);
    engine.predict_topk(queries.features(i), 10, got, infer::TopKMode::Dense, &scores);
    ASSERT_EQ(want, got) << "query " << i;
    // Same kernels in the same order: logits must match bit for bit.
    inference_forward(net.views(), net.precision(), queries.features(i), /*sampled=*/false, ws);
    const auto& logits = ws.layers.back().act;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(scores[j], logits[got[j]]) << "query " << i << " rank " << j;
    }
  }
}

TEST(PackedModel, DenseParityAcrossPrecisions) {
  for (const Precision p : {Precision::Bf16Activations, Precision::Bf16All}) {
    Network net = trained_network(p);
    const infer::PackedModel pm = infer::PackedModel::freeze(net);
    infer::InferenceEngine engine(pm);
    const data::Dataset queries = query_set(16);
    Workspace ws = net.make_workspace();
    std::vector<std::uint32_t> want, got;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      net.predict_topk(queries.features(i), 5, ws, want);
      engine.predict_topk(queries.features(i), 5, got);
      ASSERT_EQ(want, got) << "precision " << static_cast<int>(p) << " query " << i;
    }
  }
}

TEST(PackedModel, FreezeToBf16HalvesWeightArena) {
  const Network net = trained_network();
  const infer::PackedModel fp32 = infer::PackedModel::freeze(net, Precision::Fp32);
  const infer::PackedModel bf16 = infer::PackedModel::freeze(net, Precision::Bf16All);
  EXPECT_EQ(bf16.precision(), Precision::Bf16All);
  EXPECT_LT(bf16.arena_bytes(), fp32.arena_bytes());
  // Weight rows quantized with the library's round-to-nearest-even.
  const auto src = net.layer(0).weights_f32();
  ASSERT_EQ(bf16.layer(0).w16.size(), src.size());
  EXPECT_EQ(bf16.layer(0).w16[0].bits, bf16::from_float(src[0]).bits);
  // The converted model still serves.
  infer::InferenceEngine engine(bf16);
  const data::Dataset queries = query_set(8);
  std::vector<std::uint32_t> ids;
  engine.predict_topk(queries.features(0), 5, ids);
  EXPECT_EQ(ids.size(), 5u);
}

std::vector<data::SparseVectorView> dataset_views(const data::Dataset& d) {
  std::vector<data::SparseVectorView> views;
  views.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) views.push_back(d.features(i));
  return views;
}

TEST(PackedModel, FreezeInt8QuantizesWeightsAndShrinksArena) {
  const Network net = trained_network();
  const data::Dataset calib = query_set(64);
  const std::vector<data::SparseVectorView> views = dataset_views(calib);
  const infer::PackedModel fp32 = infer::PackedModel::freeze(net, Precision::Fp32);
  const infer::PackedModel q = infer::PackedModel::freeze(net, Precision::Int8, views);
  EXPECT_EQ(q.precision(), Precision::Int8);
  EXPECT_EQ(q.num_params(), fp32.num_params());
  // 1-byte weights: the whole arena lands well under half the fp32 one.
  EXPECT_LT(q.arena_bytes() * 2, fp32.arena_bytes());
  for (std::size_t i = 0; i < q.num_layers(); ++i) {
    const auto& L = q.layer(i);
    ASSERT_EQ(L.w8.size(), fp32.layer(i).w.size());
    ASSERT_EQ(L.w_scale.size(), L.dim);
    ASSERT_EQ(L.w_rowsum.size(), L.dim);
    EXPECT_GT(L.in_scale, 0.0f);
    EXPECT_GE(L.in_zero, 0);
    EXPECT_LE(L.in_zero, 127);
    for (std::size_t n = 0; n < L.dim; ++n) {
      EXPECT_GT(L.w_scale[n], 0.0f);
      std::int32_t sum = 0;
      std::int8_t amax = 0;
      for (std::size_t j = 0; j < L.input_dim; ++j) {
        const std::int8_t v = L.w8[L.weight_index(static_cast<std::uint32_t>(n), j)];
        ASSERT_GE(v, -127);  // symmetric range never emits -128
        sum += v;
        amax = std::max<std::int8_t>(amax, std::int8_t(std::abs(int(v))));
      }
      EXPECT_EQ(sum, L.w_rowsum[n]) << "layer " << i << " row " << n;
      // Per-row symmetric absmax scaling saturates each non-zero row.
      float wmax = 0.0f;
      for (std::size_t j = 0; j < L.input_dim; ++j) {
        wmax = std::max(wmax, std::fabs(net.layer(i).weight(static_cast<std::uint32_t>(n), j)));
      }
      if (wmax > 0.0f) EXPECT_EQ(amax, 127) << "layer " << i << " row " << n;
    }
  }
}

TEST(PackedModel, FreezeInt8RequiresCalibration) {
  const Network net = trained_network();
  // No calibration batch at all: the two-arg overload cannot do int8.
  EXPECT_THROW(infer::PackedModel::freeze(net, Precision::Int8), std::invalid_argument);
  // An empty span is just as useless.
  EXPECT_THROW(infer::PackedModel::freeze(net, Precision::Int8, {}),
               std::invalid_argument);
}

TEST(PackedModel, Int8RoundTripIsBitExact) {
  const Network net = trained_network();
  const data::Dataset calib = query_set(64);
  const infer::PackedModel pm =
      infer::PackedModel::freeze(net, Precision::Int8, dataset_views(calib));
  std::stringstream buffer;
  pm.save(buffer);
  const infer::PackedModel back = infer::PackedModel::load(buffer);
  ASSERT_EQ(back.num_layers(), pm.num_layers());
  EXPECT_EQ(back.precision(), Precision::Int8);
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    const auto& a = pm.layer(i);
    const auto& b = back.layer(i);
    ASSERT_EQ(a.w8.size(), b.w8.size());
    EXPECT_EQ(0, std::memcmp(a.w8.data(), b.w8.data(), a.w8.size()));
    EXPECT_EQ(0, std::memcmp(a.w_scale.data(), b.w_scale.data(),
                             a.w_scale.size() * sizeof(float)));
    // Row sums are derived at load time; they must land on the same values.
    EXPECT_EQ(0, std::memcmp(a.w_rowsum.data(), b.w_rowsum.data(),
                             a.w_rowsum.size() * sizeof(std::int32_t)));
    EXPECT_EQ(a.in_scale, b.in_scale);
    EXPECT_EQ(a.in_zero, b.in_zero);
    EXPECT_EQ(0, std::memcmp(a.bias.data(), b.bias.data(),
                             a.bias.size() * sizeof(float)));
  }

  // Identical arenas + identical frozen tables: served results match exactly.
  infer::InferenceEngine ea(pm, 555);
  infer::InferenceEngine eb(back, 555);
  const data::Dataset queries = query_set(16);
  std::vector<std::uint32_t> a, b;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ea.predict_topk(queries.features(i), 5, a);
    eb.predict_topk(queries.features(i), 5, b);
    ASSERT_EQ(a, b) << "query " << i;
  }
}

TEST(PackedModel, Int8PayloadRejectsOldFormatVersion) {
  // An int8 payload stamped with a pre-v3 version must be refused outright
  // (v1/v2 readers would misparse the weight section as fp32/bf16 bytes).
  const Network net = trained_network();
  const data::Dataset calib = query_set(32);
  std::stringstream buffer;
  infer::PackedModel::freeze(net, Precision::Int8, dataset_views(calib)).save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 2;  // version u32 follows the 4-byte magic; not covered by the CRC
  std::stringstream bad(bytes);
  try {
    infer::PackedModel::load(bad);
    FAIL() << "expected ModelIntegrityError";
  } catch (const infer::ModelIntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("int8"), std::string::npos) << e.what();
  }
}

TEST(PackedModel, RoundTripsAllPrecisions) {
  for (const Precision p :
       {Precision::Fp32, Precision::Bf16Activations, Precision::Bf16All}) {
    Network net = trained_network(p);
    const infer::PackedModel pm = infer::PackedModel::freeze(net);
    std::stringstream buffer;
    pm.save(buffer);
    const infer::PackedModel back = infer::PackedModel::load(buffer);
    ASSERT_EQ(back.num_layers(), pm.num_layers());
    EXPECT_EQ(back.precision(), pm.precision());
    for (std::size_t i = 0; i < pm.num_layers(); ++i) {
      const auto& a = pm.layer(i);
      const auto& b = back.layer(i);
      ASSERT_EQ(a.w.size(), b.w.size());
      ASSERT_EQ(a.w16.size(), b.w16.size());
      if (!a.w.empty()) {
        EXPECT_EQ(0, std::memcmp(a.w.data(), b.w.data(), a.w.size() * sizeof(float)));
      }
      if (!a.w16.empty()) {
        EXPECT_EQ(0, std::memcmp(a.w16.data(), b.w16.data(), a.w16.size() * sizeof(bf16)));
      }
      EXPECT_EQ(0, std::memcmp(a.bias.data(), b.bias.data(),
                               a.bias.size() * sizeof(float)));
      EXPECT_EQ(a.seed, b.seed);
    }
  }
}

TEST(PackedModel, RoundTripPreservesFrozenLshState) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  std::stringstream buffer;
  pm.save(buffer);
  const infer::PackedModel back = infer::PackedModel::load(buffer);

  // Identical frozen tables + identical sampler streams => identical
  // sampled predictions (candidate sets and random top-ups both match).
  infer::InferenceEngine ea(pm, 555);
  infer::InferenceEngine eb(back, 555);
  const data::Dataset queries = query_set(32);
  std::vector<std::uint32_t> a, b;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ea.predict_topk(queries.features(i), 5, a, infer::TopKMode::Sampled);
    eb.predict_topk(queries.features(i), 5, b, infer::TopKMode::Sampled);
    ASSERT_EQ(a, b) << "query " << i;
  }
}

TEST(PackedModel, SampledModeReturnsCandidatesFromTables) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(16);
  std::vector<std::uint32_t> ids;
  std::vector<float> scores;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.predict_topk(queries.features(i), 5, ids, infer::TopKMode::Sampled, &scores);
    ASSERT_FALSE(ids.empty());
    ASSERT_EQ(ids.size(), scores.size());
    for (const std::uint32_t id : ids) ASSERT_LT(id, pm.output_dim());
    for (std::size_t j = 1; j < scores.size(); ++j) ASSERT_GE(scores[j - 1], scores[j]);
  }
}

TEST(PackedModel, SampledSurvivesEmptyCandidateSets) {
  // Hashing on BOTH layers with min_active = 0 and deliberately sparse
  // tables (k large, l tiny, few neurons) makes empty candidate sets
  // routine at either depth; every such query must fall back to the exact
  // pass instead of reading an empty activation buffer.
  NetworkConfig cfg;
  cfg.input_dim = 60;
  LayerConfig hidden;
  hidden.dim = 12;
  hidden.activation = Activation::ReLU;
  hidden.lsh.kind = HashKind::Dwta;
  hidden.lsh.k = 6;
  hidden.lsh.l = 2;
  hidden.lsh.min_active = 0;
  LayerConfig output;
  output.dim = 80;
  output.activation = Activation::Softmax;
  output.lsh = hidden.lsh;
  cfg.layers = {hidden, output};
  Network net(cfg);
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);

  const data::Dataset queries = query_set(64);
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.predict_topk(queries.features(i), 5, ids, infer::TopKMode::Sampled);
    ASSERT_FALSE(ids.empty()) << "query " << i;
    for (const std::uint32_t id : ids) ASSERT_LT(id, pm.output_dim());
  }
}

// A model that hashes only its output layer, with min_active = 0 and sparse
// tables (2 tables of 4096 buckets for 80 neurons), often selects no output
// neuron.  Such a query computes every output neuron, so its Sampled ids
// and scores are its Dense ones, bit for bit, at fp32 and at int8.
TEST(PackedModel, SampledEmptySelectionEqualsDense) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 4;
  lsh.l = 2;
  lsh.min_active = 0;
  const Network net = trained_network(make_slide_mlp(60, 16, 80, lsh, Precision::Fp32, 1234));
  const data::Dataset queries = query_set(64);
  const std::vector<data::SparseVectorView> views = dataset_views(queries);
  for (const Precision precision : {Precision::Fp32, Precision::Int8}) {
    const infer::PackedModel pm = precision == Precision::Int8
                                      ? infer::PackedModel::freeze(net, precision, views)
                                      : infer::PackedModel::freeze(net, precision);
    infer::InferenceEngine engine(pm);
    std::vector<LayerView> layers;
    ForwardScratch probe;
    for (std::size_t i = 0; i < pm.num_layers(); ++i) layers.push_back(pm.layer(i).view());
    for (const LayerView& L : layers) probe.layers.emplace_back(0, L);
    std::size_t empty = 0;
    std::vector<std::uint32_t> sampled_ids, dense_ids;
    std::vector<float> sampled_scores, dense_scores;
    for (std::size_t i = 0; i < views.size(); ++i) {
      // No forced labels and no top-up: the selection is the probed buckets.
      inference_forward(layers, precision, views[i], /*sampled=*/true, probe);
      if (!probe.layers.back().active.empty()) continue;
      ++empty;
      engine.predict_topk(views[i], 5, sampled_ids, infer::TopKMode::Sampled, &sampled_scores);
      engine.predict_topk(views[i], 5, dense_ids, infer::TopKMode::Dense, &dense_scores);
      const std::string where =
          "precision=" + std::to_string(static_cast<int>(precision)) + " query " + std::to_string(i);
      ASSERT_EQ(sampled_ids, dense_ids) << where;
      ASSERT_EQ(sampled_scores.size(), dense_scores.size()) << where;
      EXPECT_EQ(0, std::memcmp(sampled_scores.data(), dense_scores.data(),
                               dense_scores.size() * sizeof(float)))
          << where;
    }
    EXPECT_GT(empty, 0u) << "precision=" << static_cast<int>(precision);
  }
}

// A Dense batch runs each worker chunk as query blocks.  Every query's ids
// and scores must still equal its own predict_topk call bit for bit, at
// every precision and for batches around the 4-query tile, whether the
// batch is one chunk (1-thread pool) or many.  The 60 -> 20 -> 37 -> 83 net
// has two layers with dense inputs, whose widths and row counts leave
// vector tails and partial row groups; it runs blocks of kQueryBlock.  The
// 70001-wide output runs blocks of kQueryBlock too, its rows ranked in
// tiles of kOutputTileRows, the last one partial, so a 17-query chunk runs
// as a block of 16 and one of 1.
TEST(PackedModel, DenseBatchBitIdenticalToSingleQueries) {
  for (const std::size_t labels : {83u, 70001u}) {
    NetworkConfig cfg = sample_config();
    cfg.layers = {{20}, {37}, {labels, Activation::Softmax, cfg.layers.back().lsh}};
    const Network net = trained_network(cfg);
    const data::Dataset queries = query_set(17);
    const std::vector<data::SparseVectorView> views = dataset_views(queries);
    ThreadPool one(1), four(4);
    constexpr std::size_t k = 6;
    for (const Precision precision : {Precision::Fp32, Precision::Bf16Activations,
                                      Precision::Bf16All, Precision::Int8}) {
      const infer::PackedModel pm = precision == Precision::Int8
                                        ? infer::PackedModel::freeze(net, precision, views)
                                        : infer::PackedModel::freeze(net, precision);
      infer::InferenceEngine engine(pm);
      std::vector<std::vector<std::uint32_t>> want_ids(views.size());
      std::vector<std::vector<float>> want_scores(views.size());
      for (std::size_t i = 0; i < views.size(); ++i) {
        engine.predict_topk(views[i], k, want_ids[i], infer::TopKMode::Dense, &want_scores[i]);
        ASSERT_EQ(want_ids[i].size(), k);
      }
      for (ThreadPool* pool : {&one, &four}) {
        for (const std::size_t batch : {1u, 3u, 4u, 5u, 17u}) {
          const std::string where = "labels=" + std::to_string(labels) +
                                    " precision=" + std::to_string(static_cast<int>(precision)) +
                                    " pool=" + std::to_string(pool->size()) +
                                    " batch=" + std::to_string(batch);
          std::vector<std::uint32_t> ids(batch * k);
          std::vector<float> scores(batch * k);
          std::vector<std::atomic<int>> fired(batch);
          engine.predict_topk_batch({views.data(), batch}, k, ids.data(), scores.data(),
                                    infer::TopKMode::Dense, pool,
                                    [&](std::size_t q) { fired[q].fetch_add(1); });
          for (std::size_t q = 0; q < batch; ++q) {
            EXPECT_EQ(fired[q].load(), 1) << where << " query " << q;
            EXPECT_TRUE(std::equal(want_ids[q].begin(), want_ids[q].end(), ids.begin() + q * k))
                << where << " query " << q;
            EXPECT_EQ(0, std::memcmp(want_scores[q].data(), scores.data() + q * k,
                                     k * sizeof(float)))
                << where << " query " << q;
          }
        }
      }
    }
  }
}

// One query's scratch for `layers`, as the engine builds it.
ForwardScratch scratch_for(std::span<const LayerView> layers) {
  ForwardScratch s;
  for (const LayerView& L : layers) s.layers.emplace_back(0, L);
  return s;
}

// The output layer is ranked tile by tile (kOutputTileRows rows); its ids
// and score bits must equal topk_indices over inference_forward's full
// logits, for output widths around the tile, at Fp32, Bf16Activations and
// Bf16All through Network::predict_topk and at Int8 through a PackedModel's
// views, in blocks of 1, 4, 5 and 16 queries, with k up to the width + 2.
TEST(TiledRanking, MatchesTopKOfFullLogits) {
  const data::Dataset queries = query_set(16);
  const std::vector<data::SparseVectorView> xs = dataset_views(queries);
  constexpr std::size_t kTile = kOutputTileRows;
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, kTile - 1, kTile, kTile + 1,
                                  2 * kTile + 5}) {
    for (const Precision precision : {Precision::Fp32, Precision::Bf16Activations,
                                      Precision::Bf16All, Precision::Int8}) {
      NetworkConfig cfg = sample_config();
      cfg.precision = precision == Precision::Int8 ? Precision::Fp32 : precision;
      cfg.layers = {{20}, {37}, {width, Activation::Softmax}};
      const Network net(cfg);
      std::optional<infer::PackedModel> pm;
      std::vector<LayerView> layers(net.views().begin(), net.views().end());
      if (precision == Precision::Int8) {
        pm.emplace(infer::PackedModel::freeze(net, precision, xs));
        for (std::size_t i = 0; i < pm->num_layers(); ++i) layers[i] = pm->layer(i).view();
      }
      // Query q's reference ranking: full logits, then topk_indices.
      std::vector<AlignedVector<float>> logits(xs.size());
      for (std::size_t q = 0; q < xs.size(); ++q) {
        ForwardScratch r = scratch_for(layers);
        inference_forward(layers, precision, xs[q], /*sampled=*/false, r);
        logits[q] = r.layers.back().act;
        ASSERT_EQ(logits[q].size(), width);
      }
      for (const std::size_t block : {1u, 4u, 5u, 16u}) {
        std::vector<ForwardScratch> s(block, scratch_for(layers));
        std::vector<std::vector<std::uint32_t>> ids(block);
        for (const std::size_t k : {std::size_t{1}, std::size_t{5}, width, width + 2}) {
          for (std::size_t q0 = 0; q0 < xs.size(); q0 += block) {
            const std::size_t m = std::min(block, xs.size() - q0);
            const std::span<const data::SparseVectorView> bxs(xs.data() + q0, m);
            if (precision == Precision::Int8) {
              inference_topk(layers, precision, bxs, /*sampled=*/false, k, {s.data(), m});
            } else {
              net.predict_topk(bxs, k, {s.data(), m}, {ids.data(), m});
            }
            for (std::size_t q = 0; q < m; ++q) {
              const std::string where = "width=" + std::to_string(width) + " precision=" +
                                        std::to_string(static_cast<int>(precision)) +
                                        " block=" + std::to_string(block) +
                                        " k=" + std::to_string(k) +
                                        " query=" + std::to_string(q0 + q);
              std::vector<std::uint32_t> want;
              topk_indices(logits[q0 + q].data(), width, k, want);
              const std::span<const Scored> got = s[q].topk.ranked();
              ASSERT_EQ(got.size(), want.size()) << where;
              if (precision != Precision::Int8) EXPECT_EQ(ids[q], want) << where;
              for (std::size_t j = 0; j < want.size(); ++j) {
                ASSERT_EQ(got[j].id, want[j]) << where << " rank " << j;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j].score),
                          std::bit_cast<std::uint32_t>(logits[q0 + q][want[j]]))
                    << where << " rank " << j;
              }
            }
          }
        }
      }
    }
  }
}

TEST(PackedModel, BatchedMatchesPerExample) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(40);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  constexpr std::size_t k = 7;
  std::vector<std::uint32_t> batch_ids(queries.size() * k);
  std::vector<float> batch_scores(queries.size() * k);
  engine.predict_topk_batch(views, k, batch_ids.data(), batch_scores.data());

  std::vector<std::uint32_t> one;
  std::vector<float> one_scores;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.predict_topk(views[i], k, one, infer::TopKMode::Dense, &one_scores);
    for (std::size_t j = 0; j < one.size(); ++j) {
      ASSERT_EQ(batch_ids[i * k + j], one[j]) << "query " << i;
      ASSERT_EQ(batch_scores[i * k + j], one_scores[j]) << "query " << i;
    }
  }
}

// --- batch-entry edge cases the serving layer hits -------------------------

TEST(PackedModel, BatchEmptyAndZeroKAreNoOps) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);

  int callbacks = 0;
  engine.predict_topk_batch({}, 5, nullptr, nullptr, infer::TopKMode::Dense, nullptr,
                            [&](std::size_t) { ++callbacks; });
  EXPECT_EQ(callbacks, 0);

  const data::Dataset queries = query_set(4);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));
  std::vector<std::uint32_t> ids(4, 12345u);
  engine.predict_topk_batch(views, 0, ids.data(), nullptr, infer::TopKMode::Dense,
                            nullptr, [&](std::size_t) { ++callbacks; });
  EXPECT_EQ(callbacks, 0);
  for (const std::uint32_t id : ids) EXPECT_EQ(id, 12345u);  // untouched
}

TEST(PackedModel, BatchSmallerThanThreadCountMatchesPerExample) {
  // Below the engine's fan-out threshold AND below the pool size: the batch
  // must still produce exactly the per-example results.
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(2);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  constexpr std::size_t k = 5;
  std::vector<std::uint32_t> ids(views.size() * k);
  engine.predict_topk_batch(views, k, ids.data());
  std::vector<std::uint32_t> one;
  for (std::size_t i = 0; i < views.size(); ++i) {
    engine.predict_topk(views[i], k, one);
    for (std::size_t j = 0; j < one.size(); ++j) EXPECT_EQ(ids[i * k + j], one[j]);
  }
}

TEST(PackedModel, BatchKLargerThanOutputLayerPadsWithInvalidId) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(6);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  const std::size_t k = pm.output_dim() + 25;  // more than the layer can rank
  std::vector<std::uint32_t> ids(views.size() * k);
  std::vector<float> scores(views.size() * k);
  engine.predict_topk_batch(views, k, ids.data(), scores.data());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::uint32_t* row = ids.data() + i * k;
    for (std::size_t j = 0; j < pm.output_dim(); ++j) {
      ASSERT_NE(row[j], infer::InferenceEngine::kInvalidId) << "query " << i;
      ASSERT_LT(row[j], pm.output_dim());
    }
    for (std::size_t j = pm.output_dim(); j < k; ++j) {
      ASSERT_EQ(row[j], infer::InferenceEngine::kInvalidId) << "query " << i;
      ASSERT_EQ(scores[i * k + j], 0.0f);
    }
    // Each neuron id appears exactly once in the ranked prefix.
    std::vector<bool> seen(pm.output_dim(), false);
    for (std::size_t j = 0; j < pm.output_dim(); ++j) {
      ASSERT_FALSE(seen[row[j]]);
      seen[row[j]] = true;
    }
  }
}

TEST(PackedModel, BatchCompletionCallbackFiresOncePerQuery) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(40);  // large enough to fan out
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  constexpr std::size_t k = 5;
  std::vector<std::uint32_t> ids(views.size() * k, infer::InferenceEngine::kInvalidId);
  std::vector<std::atomic<int>> fired(views.size());
  for (auto& f : fired) f.store(0);
  std::atomic<int> rows_ready{0};
  engine.predict_topk_batch(
      views, k, ids.data(), nullptr, infer::TopKMode::Dense, nullptr,
      [&](std::size_t q) {
        fired[q].fetch_add(1);
        // The query's row must already be final when its callback runs.
        bool complete = true;
        for (std::size_t j = 0; j < k; ++j) {
          complete = complete && ids[q * k + j] != infer::InferenceEngine::kInvalidId;
        }
        if (complete) rows_ready.fetch_add(1);
      });
  for (std::size_t qi = 0; qi < views.size(); ++qi) {
    EXPECT_EQ(fired[qi].load(), 1) << "query " << qi;
  }
  EXPECT_EQ(rows_ready.load(), static_cast<int>(views.size()));
}

TEST(PackedModel, ConcurrentQueriesMatchNetworkExactly) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(48);

  // Ground truth from the training network, single-threaded.
  std::vector<std::vector<std::uint32_t>> want(queries.size());
  Workspace ws = net.make_workspace();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    net.predict_topk(queries.features(i), 5, ws, want[i]);
  }

  constexpr unsigned kThreads = 8;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint32_t> got;
      bool all = true;
      // Each thread walks the whole query set from a different offset so
      // leases constantly interleave.
      for (std::size_t step = 0; step < queries.size(); ++step) {
        const std::size_t i = (step * (t + 1) + t) % queries.size();
        engine.predict_topk(queries.features(i), 5, got);
        all = all && got == want[i];
      }
      ok[t] = all;
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;
}

TEST(PackedModel, LoadRejectsGarbageAndWrongVersion) {
  std::stringstream garbage("not a packed model at all");
  EXPECT_THROW(infer::PackedModel::load(garbage), infer::ModelIntegrityError);

  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 77;  // version field follows the 4-byte magic
  std::stringstream bad(bytes);
  EXPECT_THROW(infer::PackedModel::load(bad), infer::ModelIntegrityError);

  std::stringstream truncated(bytes.substr(0, bytes.size() / 3));
  EXPECT_THROW(infer::PackedModel::load(truncated), infer::ModelIntegrityError);
}

TEST(PackedModel, LoadDetectsSingleFlippedWeightByte) {
  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  std::string bytes = buffer.str();

  // Flip one byte deep in the payload (a layer's weight arena): v1 would
  // happily serve the corrupted weights; v2's section checksum must refuse,
  // and the error must say which section failed.
  bytes[bytes.size() / 2] ^= 0x01;
  std::stringstream corrupt(bytes);
  try {
    infer::PackedModel::load(corrupt);
    FAIL() << "expected ModelIntegrityError";
  } catch (const infer::ModelIntegrityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("layer"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(PackedModel, LoadDetectsCorruptHeaderAndMetadata) {
  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  const std::string bytes = buffer.str();

  {
    // Header section: input_dim (u64 after magic+version+precision byte).
    std::string mutated = bytes;
    mutated[4 + 4 + 1] ^= 0x04;
    std::stringstream in(mutated);
    try {
      infer::PackedModel::load(in);
      FAIL() << "expected ModelIntegrityError";
    } catch (const infer::ModelIntegrityError& e) {
      EXPECT_NE(std::string(e.what()).find("header"), std::string::npos) << e.what();
    }
  }
  {
    // Layer 0 metadata: a byte of the hash seed (follows the config record).
    // The seed carries no structural constraints, so only the section CRC
    // can catch the flip.
    std::string mutated = bytes;
    mutated[4 + 4 + 17 + 4 + io::kLayerConfigWireBytes] ^= 0x10;
    std::stringstream in(mutated);
    try {
      infer::PackedModel::load(in);
      FAIL() << "expected ModelIntegrityError";
    } catch (const infer::ModelIntegrityError& e) {
      EXPECT_NE(std::string(e.what()).find("metadata"), std::string::npos) << e.what();
    }
  }
}

TEST(PackedModel, LoadAcceptsVersion1FilesWithoutChecksums) {
  // A v1 file is the v2 byte stream with the version stamped back and every
  // CRC word spliced out; load must still parse it (legacy models).
  const Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  std::stringstream buffer;
  pm.save(buffer);
  const std::string v2 = buffer.str();

  std::string v1;
  std::size_t at = 0;
  const auto take = [&](std::size_t n) {
    v1.append(v2, at, n);
    at += n;
  };
  const auto skip_crc = [&] { at += 4; };
  take(4);  // magic
  v1 += '\x01';
  v1.append(3, '\0');  // version u32 = 1
  at += 4;
  take(1 + 8 + 8);  // header section
  skip_crc();
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    const auto& L = pm.layer(i);
    take(io::kLayerConfigWireBytes + 8 +
         L.bias.size() * sizeof(float));  // config + seed + biases
    skip_crc();
    take(L.w.size() * sizeof(float) + L.w16.size() * sizeof(bf16));
    skip_crc();
  }
  ASSERT_EQ(at, v2.size());

  std::stringstream in(v1);
  const infer::PackedModel back = infer::PackedModel::load(in);
  EXPECT_EQ(back.num_params(), pm.num_params());
  EXPECT_EQ(0, std::memcmp(back.layer(0).w.data(), pm.layer(0).w.data(),
                           pm.layer(0).w.size() * sizeof(float)));
}

TEST(PackedModel, CommittedModelFilesResaveByteForByte) {
  // Written before layer 0 went feature-major: load transposes layer 0 into
  // memory and save transposes it back, so every byte (and CRC) survives.
  for (const char* name : {"tiny_fp32.sldp", "tiny_int8.sldp"}) {
    const std::string path = std::string(SLIDE_TEST_FIXTURES) + "/" + name;
    std::ifstream file(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(file),
                            std::istreambuf_iterator<char>()};
    ASSERT_FALSE(bytes.empty()) << path;
    std::stringstream in(bytes);
    const infer::PackedModel pm = infer::PackedModel::load(in);
    ASSERT_TRUE(pm.layer(0).feature_major) << name;
    std::stringstream out;
    pm.save(out);
    EXPECT_TRUE(out.str() == bytes) << "re-saved model differs from " << path;
  }
}

TEST(PackedModel, FreezeReproducesCommittedFixtures) {
  // tests/fixtures/README.md describes how the files were made: freezing the
  // committed checkpoint again must give the same model, which pins the
  // int8 calibration pass as well as the packing.
  const std::string dir = SLIDE_TEST_FIXTURES;
  const Network net = load_network_file(dir + "/tiny_checkpoint.sldn");

  std::ifstream file(dir + "/tiny_fp32.sldp", std::ios::binary);
  const std::string fp32_bytes{std::istreambuf_iterator<char>(file),
                               std::istreambuf_iterator<char>()};
  ASSERT_FALSE(fp32_bytes.empty());
  std::stringstream fp32;
  infer::PackedModel::freeze(net, Precision::Fp32).save(fp32);
  EXPECT_TRUE(fp32.str() == fp32_bytes) << "fp32 freeze differs from tiny_fp32.sldp";

  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 24;
  dcfg.label_dim = 10;
  dcfg.num_train = 64;
  dcfg.num_test = 8;
  dcfg.avg_nnz = 5;
  dcfg.num_clusters = 4;
  dcfg.seed = 5;
  const data::Dataset calib = data::make_xc_datasets(dcfg).first;
  const infer::PackedModel got =
      infer::PackedModel::freeze(net, Precision::Int8, dataset_views(calib));
  const infer::PackedModel want = infer::PackedModel::load_file(dir + "/tiny_int8.sldp");
  ASSERT_EQ(got.num_layers(), want.num_layers());
  for (std::size_t i = 0; i < got.num_layers(); ++i) {
    const auto& a = got.layer(i);
    const auto& b = want.layer(i);
    EXPECT_TRUE(a.w8 == b.w8) << "layer " << i;
    EXPECT_TRUE(a.w_scale == b.w_scale) << "layer " << i;
    EXPECT_EQ(a.in_zero, b.in_zero) << "layer " << i;
    // The calibration's fp32 sums run in each ISA's kernel order, so the
    // last bits of the activation scale may move between tiers.
    EXPECT_NEAR(a.in_scale, b.in_scale, 1e-6 * std::fabs(b.in_scale)) << "layer " << i;
  }
}

TEST(PackedModel, LoadRejectsOutOfRangeLayerConfigBytes) {
  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  const std::string bytes = buffer.str();
  // Layer 0's metadata section: config record, seed, biases, then its CRC.
  // Each case re-seals the CRC, so only the range check can refuse it.
  const std::size_t meta = 4 + 4 + 17 + 4;
  const std::size_t meta_bytes =
      io::kLayerConfigWireBytes + 8 + net.layer(0).dim() * sizeof(float);
  const struct {
    std::size_t offset;  // within the config record
    char value;
  } cases[] = {{8, 3}, {9, 3}, {22, 2}, {55, 2}};  // activation, hash kind, policy, maintenance
  for (const auto& c : cases) {
    std::string mutated = bytes;
    mutated[meta + c.offset] = c.value;
    const std::uint32_t crc = util::crc32c(mutated.data() + meta, meta_bytes);
    std::memcpy(mutated.data() + meta + meta_bytes, &crc, sizeof(crc));
    std::stringstream in(mutated);
    try {
      infer::PackedModel::load(in);
      ADD_FAILURE() << "accepted byte " << int(c.value) << " at config offset " << c.offset;
    } catch (const infer::ModelIntegrityError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid"), std::string::npos) << e.what();
    }
  }
}

// An SLDP file whose output layer declares DWTA K = 10 over 2^20 tables is
// refused by the hash family before rebuild_lsh allocates any table, and
// load reports it as an integrity error.  The metadata CRC is re-sealed,
// so only the bucket budget can refuse it.
TEST(PackedModel, LoadRejectsLshTablesPastTheBucketBudget) {
  const Network net = trained_network();
  ASSERT_EQ(net.num_layers(), 2u);
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  std::string bytes = buffer.str();
  // Header (29 bytes), layer 0's metadata and weight sections (each with
  // its CRC), then layer 1's metadata: config record, seed, biases, CRC.
  const std::size_t d0 = net.layer(0).dim();
  const std::size_t meta = 29 + (io::kLayerConfigWireBytes + 8 + d0 * 4 + 4) +
                           (d0 * net.layer(0).input_dim() * 4 + 4);
  const std::size_t meta_bytes =
      io::kLayerConfigWireBytes + 8 + net.layer(1).dim() * sizeof(float);
  ASSERT_EQ(static_cast<std::uint8_t>(bytes[meta + 9]),
            static_cast<std::uint8_t>(HashKind::Dwta));
  const std::int32_t k = 10, l = 1 << 20;
  std::memcpy(bytes.data() + meta + 10, &k, sizeof(k));
  std::memcpy(bytes.data() + meta + 14, &l, sizeof(l));
  const std::uint32_t crc = util::crc32c(bytes.data() + meta, meta_bytes);
  std::memcpy(bytes.data() + meta + meta_bytes, &crc, sizeof(crc));
  std::stringstream in(bytes);
  try {
    infer::PackedModel::load(in);
    ADD_FAILURE() << "accepted DWTA K = 10, L = 2^20";
  } catch (const infer::ModelIntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
}

// A header declaring more weights than the file holds is rejected before
// anything that size is allocated.  This v1 file (no checksums) is just a
// header, one 2^31-wide layer record and its seed: the loader used to
// resize and zero 8 GiB of biases before failing as truncated.
TEST(PackedModel, LoadRejectsLayerLargerThanFileBeforeAllocating) {
  std::ostringstream out;
  io::write_pod<std::uint32_t>(out, 0x534C4450u);  // "SLDP"
  io::write_pod<std::uint32_t>(out, 1);
  io::write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(Precision::Fp32));
  io::write_pod<std::uint64_t>(out, 4);  // input_dim
  io::write_pod<std::uint64_t>(out, 1);  // num_layers
  LayerConfig layer;
  layer.dim = std::size_t{1} << 31;
  io::write_layer_config(out, layer);
  io::write_pod<std::uint64_t>(out, 0);  // seed
  std::istringstream in(out.str());
  try {
    infer::PackedModel::load(in);
    FAIL() << "loaded a model the file cannot hold";
  } catch (const infer::ModelIntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("layer 0"), std::string::npos) << e.what();
  }
}

TEST(PackedModel, FileRoundTrip) {
  const Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  const std::string path = ::testing::TempDir() + "/slide_packed.pk";
  pm.save_file(path);
  const infer::PackedModel back = infer::PackedModel::load_file(path);
  EXPECT_EQ(back.num_params(), pm.num_params());
  EXPECT_THROW(infer::PackedModel::load_file("/nonexistent/model.pk"), std::runtime_error);
}

}  // namespace
}  // namespace slide
