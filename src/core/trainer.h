// Training loop: HOGWILD batch parallelism + per-batch sparse ADAM +
// hash-table rebuild schedule (paper Sections 2, 4.1.1, 4.3.1).
//
// One Trainer drives one Network.  Within a batch, examples fan out over the
// global thread pool (dynamic chunks — sparse examples have skewed cost) and
// race their gradient accumulations; the optimizer step and the rebuild
// bookkeeping run between batches.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/network.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "util/aligned.h"

namespace slide {

namespace data {
class StreamingDataset;
}

// Epoch-ordering policies.  `Batches` shuffles the order of batches while
// keeping each batch a contiguous slice of the (coalesced) dataset — the
// cache-friendly choice Section 4.1's analysis favors.  `Examples` draws a
// full random permutation, which destroys the sequential-prefetch pattern;
// the memory-ablation bench uses it to demonstrate exactly that.
enum class ShuffleMode { None, Batches, Examples };

struct TrainerConfig {
  std::size_t batch_size = 256;
  AdamConfig adam;
  std::size_t epochs = 5;
  ShuffleMode shuffle = ShuffleMode::Batches;
  std::uint64_t seed = 1;
  // Cap on test examples used for the per-epoch P@1 estimate (0 = all).
  std::size_t eval_max_examples = 2000;
  bool verbose = false;
  // When set, the trainer publishes training telemetry (loss, P@1, LSH
  // rebuilds, hash-table occupancy, active-set sizes, streaming-loader
  // overlap) into this registry.  nullptr = no instrumentation and zero
  // per-batch overhead beyond one branch.
  obs::MetricsRegistry* metrics = nullptr;
};

struct EpochRecord {
  std::size_t epoch = 0;
  double train_seconds = 0.0;       // this epoch's training wall-clock
  double cumulative_seconds = 0.0;  // total training time so far (excl. eval)
  double avg_loss = 0.0;
  double p_at_1 = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> history;
  double avg_epoch_seconds = 0.0;
  double final_p_at_1 = 0.0;
};

// Loader-side accounting for one streaming epoch (see train_one_epoch on a
// StreamingDataset).  loader_wait_seconds is the part of the epoch the
// prefetch pipeline failed to hide behind compute; an overlap ratio is
// 1 - loader_wait_seconds / epoch_seconds.
struct StreamStats {
  double first_batch_seconds = 0.0;  // epoch start -> first gradient step done
  double first_chunk_seconds = 0.0;  // epoch start -> first chunk available
  double loader_wait_seconds = 0.0;  // total time blocked on the chunk queue
  std::size_t chunks = 0;
  std::size_t examples = 0;
  std::size_t batches = 0;
};

class Trainer {
 public:
  Trainer(Network& net, TrainerConfig cfg);
  ~Trainer();

  // Full run: cfg.epochs epochs, evaluating P@1 after each.
  TrainResult train(const data::Dataset& train_set, const data::Dataset& test_set);

  // Streaming run: the training set is consumed chunk-by-chunk from disk
  // each epoch instead of being resident; the test set stays eager.
  TrainResult train(data::StreamingDataset& train_stream, const data::Dataset& test_set);

  // One epoch of training; returns its wall-clock seconds.
  double train_one_epoch(const data::Dataset& train_set);

  // One streaming epoch: consumes the dataset's chunk stream (ShuffleMode::
  // Batches becomes chunk-order permutation + intra-chunk batch shuffle;
  // batches straddle chunk boundaries so example grouping matches the eager
  // path when shuffling is off).  Loader accounting lands in
  // last_stream_stats().
  double train_one_epoch(data::StreamingDataset& train_stream);

  // Mean P@k (|top-k ∩ labels| / k, the extreme-classification convention)
  // over (up to max_examples of) the test set via Network::predict_topk,
  // each pool chunk of kQueryBlock examples running as one query block at
  // every output width (the output layer is ranked tile by tile, so no
  // block holds full-width logits).
  double evaluate_p_at_k(const data::Dataset& test_set, std::size_t k,
                         std::size_t max_examples = 0);
  double evaluate_p_at_1(const data::Dataset& test_set, std::size_t max_examples = 0) {
    return evaluate_p_at_k(test_set, 1, max_examples);
  }

  double last_avg_loss() const { return last_avg_loss_; }

  // Loader accounting for the most recent streaming epoch.
  const StreamStats& last_stream_stats() const { return stream_stats_; }

 private:
  void ensure_workspaces();

  // Publishes one epoch's telemetry (loss, P@1, per-layer table occupancy,
  // average output-layer active-set size).  No-op without cfg_.metrics.
  void publish_epoch_metrics(const EpochRecord& rec);
  // Publishes the streaming-loader gauges for the epoch that just finished.
  void publish_stream_metrics(double epoch_seconds);

  // One HOGWILD batch: fan the examples out over the pool, race gradient
  // accumulation, then run the optimizer step and the rebuild bookkeeping.
  // `order` remaps example offsets (nullptr = contiguous [begin, begin+count)).
  // Shared by the eager and streaming epoch loops.
  void hogwild_batch(const data::Dataset& ds, const std::uint32_t* order,
                     std::size_t begin, std::size_t count,
                     std::vector<CacheAligned<double>>& loss_partials);

  Network& net_;
  TrainerConfig cfg_;
  std::vector<Workspace> workspaces_;  // one per pool worker rank
  // Eval state per pool worker rank: a scratch and a top-k list for each
  // of a block's kQueryBlock queries.
  struct EvalBlock {
    std::vector<ForwardScratch> scratch;
    std::vector<std::vector<std::uint32_t>> topk;
  };
  std::vector<EvalBlock> eval_blocks_;
  double last_avg_loss_ = 0.0;
  std::uint64_t epoch_counter_ = 0;
  StreamStats stream_stats_;

  // Telemetry handles (defined in trainer.cpp); null when cfg_.metrics is.
  struct Telemetry;
  std::unique_ptr<Telemetry> telemetry_;
  // Per-rank HOGWILD accumulation of the output neurons computed (the
  // active set, or every neuron of a layer that ran dense);
  // cache-line padded like loss_partials, drained once per epoch.
  std::vector<CacheAligned<std::uint64_t>> active_size_partials_;
  std::vector<CacheAligned<std::uint64_t>> active_count_partials_;
};

}  // namespace slide
