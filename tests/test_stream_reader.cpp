#include "data/stream_reader.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/trainer.h"
#include "data/svm_reader.h"
#include "data/synthetic.h"
#include "pool_guard.h"

namespace slide::data {
namespace {

// Writes a synthetic XC dataset to a temp file and returns (path, dataset).
std::pair<std::string, Dataset> write_fixture(std::size_t num_examples,
                                              const std::string& name,
                                              std::uint64_t seed = 13) {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 80;
  cfg.num_train = num_examples;
  cfg.num_test = 1;
  cfg.avg_nnz = 12;
  cfg.num_clusters = 8;
  cfg.seed = seed;
  auto [train, test] = make_xc_datasets(cfg);
  (void)test;
  const std::string path = ::testing::TempDir() + "/" + name;
  write_xc_file(path, train);
  // Return the round-tripped dataset: serialization quantizes float values,
  // and parity checks must compare against what the file actually holds.
  return {path, read_xc_file(path)};
}

StreamingConfig small_chunks(std::size_t chunk_bytes = 4096, std::size_t prefetch = 2) {
  StreamingConfig cfg;
  cfg.chunk_bytes = chunk_bytes;
  cfg.prefetch = prefetch;
  return cfg;
}

void expect_same_example(const Dataset& a, std::size_t ia, const Dataset& b,
                         std::size_t ib) {
  const auto fa = a.features(ia);
  const auto fb = b.features(ib);
  ASSERT_EQ(fa.nnz, fb.nnz);
  for (std::size_t k = 0; k < fa.nnz; ++k) {
    EXPECT_EQ(fa.indices[k], fb.indices[k]);
    EXPECT_FLOAT_EQ(fa.values[k], fb.values[k]);
  }
  const auto la = a.labels(ia);
  const auto lb = b.labels(ib);
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t k = 0; k < la.size(); ++k) EXPECT_EQ(la[k], lb[k]);
}

TEST(StreamReader, IndexScanCoversFileContiguously) {
  auto [path, eager] = write_fixture(600, "slide_stream_index.txt");
  (void)eager;
  StreamingDataset stream(path, small_chunks());
  ASSERT_GT(stream.num_chunks(), 3u) << "fixture too small to exercise chunking";

  const auto& chunks = stream.chunks();
  // Chunks tile [data_start, file_bytes) exactly, in order, newline-aligned.
  EXPECT_EQ(chunks.back().end, stream.file_bytes());
  std::size_t total_lines = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_LT(chunks[i].begin, chunks[i].end);
    if (i > 0) EXPECT_EQ(chunks[i].begin, chunks[i - 1].end);
    total_lines += chunks[i].lines;
  }
  EXPECT_EQ(total_lines, 600u);
  EXPECT_EQ(chunks.front().first_line, 2u);  // header is line 1
  EXPECT_EQ(stream.feature_dim(), 300u);
  EXPECT_EQ(stream.label_dim(), 80u);
  EXPECT_EQ(stream.declared_examples(), 600u);
}

TEST(StreamReader, StreamedExamplesMatchEagerReader) {
  auto [path, eager] = write_fixture(500, "slide_stream_parity.txt");
  StreamingDataset stream(path, small_chunks());
  ASSERT_GT(stream.num_chunks(), 2u);

  ChunkStream cs = stream.begin_epoch(/*seed=*/1, /*epoch=*/0, /*shuffle=*/false);
  std::size_t next = 0;
  while (auto shard = cs.next()) {
    for (std::size_t i = 0; i < shard->size(); ++i, ++next) {
      ASSERT_LT(next, eager.size());
      expect_same_example(*shard, i, eager, next);
    }
  }
  EXPECT_EQ(next, eager.size());
  EXPECT_GE(cs.first_chunk_seconds(), 0.0);
}

TEST(StreamReader, ReadChunkMatchesStreamedShards) {
  auto [path, eager] = write_fixture(400, "slide_stream_readchunk.txt");
  (void)eager;
  StreamingDataset stream(path, small_chunks());
  std::size_t total = 0;
  for (std::size_t c = 0; c < stream.num_chunks(); ++c) {
    const Dataset shard = stream.read_chunk(c);
    EXPECT_EQ(shard.size(), stream.chunks()[c].lines);
    total += shard.size();
  }
  EXPECT_EQ(total, 400u);
}

TEST(StreamReader, ChunkPermutationIsDeterministicAndValid) {
  const auto p1 = StreamingDataset::chunk_permutation(50, 7, 3, true);
  const auto p2 = StreamingDataset::chunk_permutation(50, 7, 3, true);
  EXPECT_EQ(p1, p2);  // same (seed, epoch) -> same order

  const auto p3 = StreamingDataset::chunk_permutation(50, 7, 4, true);
  EXPECT_NE(p1, p3);  // next epoch reshuffles

  auto sorted = p1;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  const auto ident = StreamingDataset::chunk_permutation(5, 7, 3, false);
  EXPECT_EQ(ident, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(StreamReader, ShuffledEpochDeliversChunksInPermutationOrder) {
  auto [path, eager] = write_fixture(500, "slide_stream_shuffled.txt");
  (void)eager;
  StreamingDataset stream(path, small_chunks());
  ASSERT_GT(stream.num_chunks(), 2u);

  ChunkStream cs = stream.begin_epoch(/*seed=*/3, /*epoch=*/1, /*shuffle=*/true);
  const auto order = cs.order();
  EXPECT_EQ(order,
            StreamingDataset::chunk_permutation(stream.num_chunks(), 3, 1, true));
  std::size_t pos = 0;
  while (auto shard = cs.next()) {
    EXPECT_EQ(shard->size(), stream.chunks()[order[pos]].lines);
    ++pos;
  }
  EXPECT_EQ(pos, stream.num_chunks());
}

TEST(StreamReader, BlankLinesAndCrlfSurviveChunking) {
  const std::string path = ::testing::TempDir() + "/slide_stream_blank.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "3 10 4\r\n"
        << "0 1:1.0\r\n"
        << "\r\n"
        << "1 2:1.0\n"
        << "   \n"
        << "2,3 3:1.0\n";
  }
  // chunk_bytes=1 forces one chunk per line, including the blank ones.
  StreamingDataset stream(path, small_chunks(1));
  ChunkStream cs = stream.begin_epoch(1, 0, false);
  std::size_t examples = 0;
  while (auto shard = cs.next()) examples += shard->size();
  EXPECT_EQ(examples, 3u);  // blank/whitespace-only lines parse to nothing
}

TEST(StreamReader, HeaderOnlyFileYieldsZeroChunks) {
  const std::string path = ::testing::TempDir() + "/slide_stream_header_only.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "0 10 4\n";
  }
  StreamingDataset stream(path, small_chunks());
  EXPECT_EQ(stream.num_chunks(), 0u);
  ChunkStream cs = stream.begin_epoch(1, 0, false);
  EXPECT_FALSE(cs.next().has_value());
}

TEST(StreamReader, MissingOrBadFileThrowsAtConstruction) {
  EXPECT_THROW(StreamingDataset("/nonexistent/stream.txt", {}), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/slide_stream_badheader.txt";
  {
    std::ofstream out(path);
    out << "not a header\n";
  }
  EXPECT_THROW(StreamingDataset(path, {}), std::runtime_error);
}

TEST(StreamReader, CorruptRecordSurfacesOnNextWithPathAndLine) {
  const std::string path = ::testing::TempDir() + "/slide_stream_corrupt.txt";
  {
    std::ofstream out(path);
    out << "3 10 4\n"
        << "0 1:1.0\n"
        << "1 2:bad\n"
        << "2 3:1.0\n";
  }
  StreamingDataset stream(path, small_chunks(1));  // corrupt line in its own chunk
  ChunkStream cs = stream.begin_epoch(1, 0, false);
  try {
    while (cs.next()) {
    }
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
  }
}

TEST(StreamReader, CorruptChunkAmongManyGoodChunksThrowsInsteadOfHanging) {
  // Regression: a failed chunk's sequence number is never pushed.  Before
  // fail() was raised from inside the worker, surviving producers filled the
  // reorder window behind the missing slot and the consumer waited on it
  // forever.  Needs prefetch >= 2 and >= prefetch good chunks after the bad
  // one to reproduce the hang.
  const std::string path = ::testing::TempDir() + "/slide_stream_corrupt_many.txt";
  {
    std::ofstream out(path);
    out << "6 10 4\n"
        << "0 1:1.0\n"
        << "1 2:bad\n"
        << "2 3:1.0\n"
        << "3 4:1.0\n"
        << "0 5:1.0\n"
        << "1 6:1.0\n";
  }
  StreamingDataset stream(path, small_chunks(1, 2));  // one chunk per line
  ASSERT_EQ(stream.num_chunks(), 6u);
  ChunkStream cs = stream.begin_epoch(1, 0, false);
  try {
    while (cs.next()) {
    }
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3"), std::string::npos) << e.what();
  }
  // After the error is delivered, further next() calls see end-of-stream.
  EXPECT_FALSE(cs.next().has_value());
}

TEST(StreamReader, MoveAssignOverActiveStreamShutsItDown) {
  auto [path, eager] = write_fixture(600, "slide_stream_moveassign.txt");
  (void)eager;
  StreamingDataset stream(path, small_chunks(2048, 2));
  ASSERT_GT(stream.num_chunks(), 4u);

  ChunkStream cs = stream.begin_epoch(1, 0, false);
  ASSERT_TRUE(cs.next().has_value());
  // Assigning the next epoch over an active stream must cancel and join the
  // old epoch's coordinator, not destroy a joinable thread (terminate).
  cs = stream.begin_epoch(1, 1, false);
  std::size_t examples = 0;
  while (auto shard = cs.next()) examples += shard->size();
  EXPECT_EQ(examples, 600u);
}

TEST(StreamReader, TruncationAfterIndexScanSurfacesOnNext) {
  auto [path, eager] = write_fixture(400, "slide_stream_truncated.txt");
  (void)eager;
  StreamingDataset stream(path, small_chunks());
  ASSERT_GT(stream.num_chunks(), 2u);
  // Shrink the file after the index scan: later chunk reads come up short.
  const std::uint64_t keep = stream.chunks()[0].end;
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(keep)), 0);

  ChunkStream cs = stream.begin_epoch(1, 0, false);
  EXPECT_THROW(
      while (cs.next()) {}, std::runtime_error);
}

TEST(StreamReader, AbandoningStreamMidEpochCancelsCleanly) {
  auto [path, eager] = write_fixture(600, "slide_stream_abandon.txt");
  (void)eager;
  StreamingDataset stream(path, small_chunks(2048, 2));
  ASSERT_GT(stream.num_chunks(), 4u);
  {
    ChunkStream cs = stream.begin_epoch(1, 0, false);
    ASSERT_TRUE(cs.next().has_value());
    // Destructor aborts the in-flight prefetch; must not hang or leak.
  }
  // The dataset is reusable for a fresh epoch afterwards.
  ChunkStream cs2 = stream.begin_epoch(1, 1, false);
  std::size_t examples = 0;
  while (auto shard = cs2.next()) examples += shard->size();
  EXPECT_EQ(examples, 600u);
}

// --- Trainer integration: streaming vs eager parity ------------------------

NetworkConfig tiny_net(std::size_t input, std::size_t labels) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 8;
  lsh.min_active = 24;
  lsh.bucket_capacity = 64;
  lsh.rebuild_interval = 16;
  return make_slide_mlp(input, 16, labels, lsh, Precision::Fp32, 42);
}

std::vector<float> net_weights(const Network& net) {
  std::vector<float> w;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const auto span = net.layer(l).weights_f32();
    w.insert(w.end(), span.begin(), span.end());
  }
  return w;
}

TEST(StreamReader, TrainerParityBitForBitWithEagerSingleThread) {
  const ScopedPoolThreads one_thread(1);
  auto [path, eager] = write_fixture(700, "slide_stream_train_parity.txt");

  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.shuffle = ShuffleMode::None;  // identical example grouping required
  tcfg.seed = 5;

  Network eager_net(tiny_net(eager.feature_dim(), eager.label_dim()));
  Trainer eager_trainer(eager_net, tcfg);
  eager_trainer.train_one_epoch(eager);

  StreamingDataset stream(path, small_chunks(4096, 2));
  ASSERT_GT(stream.num_chunks(), 3u) << "need several chunks for a real test";
  Network stream_net(tiny_net(eager.feature_dim(), eager.label_dim()));
  Trainer stream_trainer(stream_net, tcfg);
  stream_trainer.train_one_epoch(stream);

  // Same batches in the same order through the same kernels: weights and the
  // epoch loss must agree bit for bit, not just approximately.
  EXPECT_EQ(net_weights(eager_net), net_weights(stream_net));
  EXPECT_DOUBLE_EQ(eager_trainer.last_avg_loss(), stream_trainer.last_avg_loss());
  EXPECT_EQ(eager_net.adam_steps(), stream_net.adam_steps());

  const StreamStats& ss = stream_trainer.last_stream_stats();
  EXPECT_EQ(ss.examples, eager.size());
  EXPECT_EQ(ss.chunks, stream.num_chunks());
  EXPECT_EQ(ss.batches, (eager.size() + 63) / 64);
  EXPECT_GE(ss.first_batch_seconds, 0.0);
  EXPECT_GE(ss.loader_wait_seconds, 0.0);
}

TEST(StreamReader, ShuffledStreamingEpochsAreDeterministic) {
  const ScopedPoolThreads one_thread(1);
  auto [path, eager] = write_fixture(500, "slide_stream_train_det.txt");

  const auto run = [&]() {
    StreamingDataset stream(path, small_chunks(4096, 3));
    Network net(tiny_net(eager.feature_dim(), eager.label_dim()));
    TrainerConfig tcfg;
    tcfg.batch_size = 64;
    tcfg.shuffle = ShuffleMode::Batches;
    tcfg.seed = 11;
    Trainer trainer(net, tcfg);
    trainer.train_one_epoch(stream);
    trainer.train_one_epoch(stream);
    return net_weights(net);
  };
  EXPECT_EQ(run(), run());
}

TEST(StreamReader, StreamingTrainImprovesP1) {
  const ScopedPoolThreads one_thread(1);
  auto [path, eager] = write_fixture(1200, "slide_stream_train_full.txt");
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 80;
  cfg.num_train = 1;
  cfg.num_test = 250;
  cfg.avg_nnz = 12;
  cfg.num_clusters = 8;
  cfg.seed = 13;  // same generator seed as the fixture -> same clusters
  auto [unused, test] = make_xc_datasets(cfg);
  (void)unused;
  (void)eager;

  StreamingDataset stream(path, small_chunks(8192, 2));
  Network net(tiny_net(stream.feature_dim(), stream.label_dim()));
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = 4;
  Trainer trainer(net, tcfg);

  const double before = trainer.evaluate_p_at_1(test);
  const TrainResult r = trainer.train(stream, test);
  ASSERT_EQ(r.history.size(), 4u);
  EXPECT_GT(r.final_p_at_1, before);
  EXPECT_GT(r.final_p_at_1, 0.2) << "before=" << before;
}

TEST(StreamReader, DatasetMemoryBytesTracksPayload) {
  auto [path, eager] = write_fixture(300, "slide_stream_mem.txt");
  (void)path;
  const std::size_t mem = eager.memory_bytes();
  EXPECT_GT(mem, 300u * 12u * (sizeof(std::uint32_t) + sizeof(float)) / 2);
  const Dataset frag = eager.with_layout(Layout::Fragmented);
  EXPECT_GT(frag.memory_bytes(), mem);  // per-example vectors cost more
  const DatasetStats stats = compute_stats(eager);
  EXPECT_EQ(stats.memory_bytes, mem);
  EXPECT_NE(format_stats(stats, "train").find("mem_mib="), std::string::npos);
}

}  // namespace
}  // namespace slide::data
