#include "core/trainer.h"

#include <algorithm>
#include <numeric>

#include "core/metrics.h"
#include "data/stream_reader.h"
#include "threading/thread_pool.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace slide {

// Handle bundle registered once at construction; per-layer occupancy gauges
// get a {layer="i"} label per hashed layer.  All updates happen between
// batches or between epochs — never inside the HOGWILD fan-out.
struct Trainer::Telemetry {
  obs::Counter& epochs;
  obs::Counter& examples;
  obs::Counter& batches;
  obs::Counter& lsh_rebuilds;
  obs::Histogram& lsh_rebuild_us;
  obs::Gauge& loss;
  obs::Gauge& p_at_1;
  obs::Gauge& epoch_seconds;
  obs::Gauge& active_set_avg;
  obs::Gauge& stream_chunks;
  obs::Gauge& stream_loader_wait_seconds;
  obs::Gauge& stream_overlap_ratio;
  obs::Gauge& stream_first_batch_seconds;
  struct LayerGauges {
    std::size_t layer;
    obs::Gauge* entries;
    obs::Gauge* occupancy;
    obs::Gauge* avg_bucket;
    obs::Gauge* bytes;
  };
  std::vector<LayerGauges> layers;

  Telemetry(obs::MetricsRegistry& reg, const Network& net)
      : epochs(reg.counter("slide_train_epochs_total", "Training epochs completed")),
        examples(reg.counter("slide_train_examples_total", "Training examples consumed")),
        batches(reg.counter("slide_train_batches_total", "Training batches completed")),
        lsh_rebuilds(reg.counter("slide_train_lsh_rebuilds_total",
                                 "Hash-table refreshes across all hashed layers")),
        lsh_rebuild_us(reg.histogram("slide_train_lsh_rebuild_us",
                                     "Wall-clock microseconds per batch spent "
                                     "refreshing LSH tables (rebuild batches only)")),
        loss(reg.gauge("slide_train_loss", "Average training loss, last epoch")),
        p_at_1(reg.gauge("slide_train_p_at_1", "Test P@1 after the last epoch")),
        epoch_seconds(reg.gauge("slide_train_epoch_seconds",
                                "Wall-clock seconds of the last training epoch")),
        active_set_avg(reg.gauge("slide_train_active_set_avg",
                                 "Average output-layer neurons computed per example "
                                 "(the active set, or every neuron), last epoch")),
        stream_chunks(reg.gauge("slide_stream_chunks", "Chunks consumed, last streaming epoch")),
        stream_loader_wait_seconds(
            reg.gauge("slide_stream_loader_wait_seconds",
                      "Seconds the trainer blocked on the chunk queue, last epoch")),
        stream_overlap_ratio(
            reg.gauge("slide_stream_overlap_ratio",
                      "1 - loader_wait/epoch: fraction of loader time hidden "
                      "behind compute, last streaming epoch")),
        stream_first_batch_seconds(
            reg.gauge("slide_stream_first_batch_seconds",
                      "Epoch start to first gradient step, last streaming epoch")) {
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      if (!net.layer(i).uses_hashing()) continue;
      const obs::Labels labels = {{"layer", std::to_string(i)}};
      layers.push_back(LayerGauges{
          i,
          &reg.gauge("slide_lsh_table_entries",
                     "Total ids resident across a layer's hash tables", labels),
          &reg.gauge("slide_lsh_bucket_occupancy",
                     "Fraction of a layer's hash buckets that are non-empty", labels),
          &reg.gauge("slide_lsh_avg_bucket_size",
                     "Average ids per non-empty bucket in a layer's tables", labels),
          &reg.gauge("slide_lsh_table_bytes",
                     "Resident bytes of a layer's hash tables (bucket heads, "
                     "insert counters and id arenas)",
                     labels)});
    }
  }
};

Trainer::Trainer(Network& net, TrainerConfig cfg) : net_(net), cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    telemetry_ = std::make_unique<Telemetry>(*cfg_.metrics, net_);
  }
}

Trainer::~Trainer() = default;

void Trainer::ensure_workspaces() {
  const unsigned ranks = global_pool().size();
  while (workspaces_.size() < ranks) {
    workspaces_.push_back(
        net_.make_workspace(mix64(cfg_.seed, workspaces_.size(), 0x3A7Full)));
  }
  if (telemetry_ != nullptr && active_size_partials_.size() < ranks) {
    active_size_partials_.resize(ranks);
    active_count_partials_.resize(ranks);
  }
}

void Trainer::publish_epoch_metrics(const EpochRecord& rec) {
  if (telemetry_ == nullptr) return;
  telemetry_->epochs.inc();
  telemetry_->loss.set(rec.avg_loss);
  telemetry_->p_at_1.set(rec.p_at_1);
  telemetry_->epoch_seconds.set(rec.train_seconds);

  std::uint64_t active_sum = 0;
  std::uint64_t active_n = 0;
  for (auto& a : active_size_partials_) {
    active_sum += a.value;
    a.value = 0;
  }
  for (auto& c : active_count_partials_) {
    active_n += c.value;
    c.value = 0;
  }
  if (active_n > 0) {
    telemetry_->active_set_avg.set(static_cast<double>(active_sum) /
                                   static_cast<double>(active_n));
  }

  // Table occupancy is read between epochs, when no worker touches the
  // tables (same single-threaded window as the rebuild schedule).
  for (const auto& lg : telemetry_->layers) {
    const lsh::LshTables* tables = net_.layer(lg.layer).tables();
    if (tables == nullptr) continue;
    std::size_t entries = 0;
    std::size_t non_empty = 0;
    std::size_t bytes = 0;
    for (std::size_t t = 0; t < tables->num_tables(); ++t) {
      const lsh::TableStats ts = tables->stats(t);
      entries += ts.total_entries;
      non_empty += ts.non_empty_buckets;
      bytes += ts.bytes;
    }
    const std::size_t buckets = tables->num_tables() * tables->bucket_range();
    lg.entries->set(static_cast<double>(entries));
    lg.occupancy->set(buckets > 0 ? static_cast<double>(non_empty) /
                                        static_cast<double>(buckets)
                                  : 0.0);
    lg.avg_bucket->set(non_empty > 0 ? static_cast<double>(entries) /
                                           static_cast<double>(non_empty)
                                     : 0.0);
    lg.bytes->set(static_cast<double>(bytes));
  }
}

void Trainer::publish_stream_metrics(double epoch_seconds) {
  if (telemetry_ == nullptr) return;
  telemetry_->stream_chunks.set(static_cast<double>(stream_stats_.chunks));
  telemetry_->stream_loader_wait_seconds.set(stream_stats_.loader_wait_seconds);
  telemetry_->stream_first_batch_seconds.set(stream_stats_.first_batch_seconds);
  const double overlap =
      epoch_seconds > 0.0
          ? 1.0 - stream_stats_.loader_wait_seconds / epoch_seconds
          : 0.0;
  telemetry_->stream_overlap_ratio.set(std::max(0.0, std::min(1.0, overlap)));
}

double Trainer::train_one_epoch(const data::Dataset& train_set) {
  ensure_workspaces();
  ThreadPool& pool = global_pool();
  const std::size_t n = train_set.size();
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  const std::size_t num_batches = (n + bs - 1) / bs;

  ++epoch_counter_;
  std::vector<std::size_t> batch_order(num_batches);
  std::iota(batch_order.begin(), batch_order.end(), 0);
  std::vector<std::uint32_t> example_order;  // only for ShuffleMode::Examples
  if (cfg_.shuffle == ShuffleMode::Batches) {
    Rng rng(mix64(cfg_.seed, epoch_counter_, 0xBA7C4ull));
    for (std::size_t i = num_batches; i > 1; --i) {
      std::swap(batch_order[i - 1], batch_order[rng.uniform_u64(i)]);
    }
  } else if (cfg_.shuffle == ShuffleMode::Examples) {
    example_order.resize(n);
    std::iota(example_order.begin(), example_order.end(), 0u);
    Rng rng(mix64(cfg_.seed, epoch_counter_, 0xE5A3ull));
    for (std::size_t i = n; i > 1; --i) {
      std::swap(example_order[i - 1], example_order[rng.uniform_u64(i)]);
    }
  }

  // Cache-line-padded slots: adjacent ranks must not share a line (the
  // HOGWILD workers bump their partial every example).
  std::vector<CacheAligned<double>> loss_partials(pool.size());

  Timer timer;
  for (const std::size_t b : batch_order) {
    const std::size_t begin = b * bs;
    const std::size_t end = std::min(n, begin + bs);
    hogwild_batch(train_set, example_order.empty() ? nullptr : example_order.data(),
                  begin, end - begin, loss_partials);
  }
  const double seconds = timer.seconds();

  double total_loss = 0.0;
  for (const auto& l : loss_partials) total_loss += l.value;
  last_avg_loss_ = n > 0 ? total_loss / static_cast<double>(n) : 0.0;
  return seconds;
}

void Trainer::hogwild_batch(const data::Dataset& ds, const std::uint32_t* order,
                            std::size_t begin, std::size_t count,
                            std::vector<CacheAligned<double>>& loss_partials) {
  ThreadPool& pool = global_pool();
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  const std::size_t grain = std::max<std::size_t>(1, bs / (4 * pool.size()));

  // HOGWILD fan-out: every worker pulls dynamic chunks of the batch and
  // races gradient accumulation into the shared arenas.
  const bool track_active = telemetry_ != nullptr;
  pool.parallel_for_dynamic(count, grain,
                            [&](unsigned rank, std::size_t lo, std::size_t hi) {
    Workspace& ws = workspaces_[rank];
    double local_loss = 0.0;
    std::uint64_t local_active = 0;
    for (std::size_t off = lo; off < hi; ++off) {
      const std::size_t idx = order == nullptr ? begin + off : order[begin + off];
      const auto x = ds.features(idx);
      const auto labels = ds.labels(idx);
      local_loss += net_.forward(x, labels, ws, /*train=*/true);
      if (track_active) local_active += ws.layers.back().act.size();
      net_.backward(x, labels, ws);
    }
    loss_partials[rank].value += local_loss;
    if (track_active) {
      active_size_partials_[rank].value += local_active;
      active_count_partials_[rank].value += hi - lo;
    }
  });

  net_.adam_step(cfg_.adam, &pool);
  if (telemetry_ != nullptr) {
    // Rebuild batches are rare (the interval grows geometrically), so timing
    // every on_batch_end is two clock reads per batch, paid only when a
    // registry is attached.
    Timer rebuild_timer;
    const std::size_t refreshed = net_.on_batch_end(&pool);
    if (refreshed > 0) {
      telemetry_->lsh_rebuilds.inc(refreshed);
      telemetry_->lsh_rebuild_us.record(
          static_cast<std::uint64_t>(rebuild_timer.seconds() * 1e6));
    }
    telemetry_->batches.inc();
    telemetry_->examples.inc(count);
  } else {
    net_.on_batch_end(&pool);
  }
}

double Trainer::train_one_epoch(data::StreamingDataset& train_stream) {
  ensure_workspaces();
  ThreadPool& pool = global_pool();
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  ++epoch_counter_;
  stream_stats_ = {};

  const bool shuffle_chunks = cfg_.shuffle != ShuffleMode::None;
  data::ChunkStream epoch =
      train_stream.begin_epoch(cfg_.seed, epoch_counter_, shuffle_chunks);

  std::vector<CacheAligned<double>> loss_partials(pool.size());
  const data::Layout layout = train_stream.config().layout;
  const auto fresh_pending = [&] {
    return data::Dataset(train_stream.feature_dim(), train_stream.label_dim(), layout);
  };
  // Carries the tail of each chunk so batches straddle chunk boundaries:
  // with shuffling off, the example grouping then matches the eager loader
  // exactly (the parity the streaming tests pin down bit-for-bit).
  data::Dataset pending = fresh_pending();

  Timer timer;
  const auto run_batch = [&](const data::Dataset& ds, const std::uint32_t* order,
                             std::size_t begin, std::size_t count) {
    hogwild_batch(ds, order, begin, count, loss_partials);
    if (stream_stats_.batches++ == 0) {
      stream_stats_.first_batch_seconds = timer.seconds();
    }
  };

  std::vector<std::uint32_t> intra_order;
  std::size_t chunk_seq = 0;
  while (std::optional<data::Dataset> chunk = epoch.next()) {
    const data::Dataset& ds = *chunk;
    ++stream_stats_.chunks;
    stream_stats_.examples += ds.size();
    if (ds.size() == 0) continue;  // chunk of blank lines

    // Finish the batch straddling the previous chunk boundary first.
    std::size_t consumed = 0;
    while (pending.size() > 0 && pending.size() < bs && consumed < ds.size()) {
      const auto f = ds.features(consumed);
      pending.add(f.index_span(), f.value_span(), ds.labels(consumed));
      ++consumed;
    }
    if (pending.size() == bs) {
      run_batch(pending, nullptr, 0, bs);
      pending = fresh_pending();
    }
    if (pending.size() > 0) continue;  // tiny chunk: batch still not full

    const std::size_t remaining = ds.size() - consumed;
    const std::size_t full_batches = remaining / bs;
    // Intra-chunk ordering mirrors the eager epoch's, drawn from a
    // per-(epoch, chunk-position) RNG stream so every chunk shuffles
    // independently yet deterministically.
    Rng rng(mix64(mix64(cfg_.seed, epoch_counter_, 0xBA7C4ull), chunk_seq, 0x51DEull));
    if (cfg_.shuffle == ShuffleMode::Examples) {
      intra_order.resize(remaining);
      std::iota(intra_order.begin(), intra_order.end(),
                static_cast<std::uint32_t>(consumed));
      for (std::size_t i = remaining; i > 1; --i) {
        std::swap(intra_order[i - 1], intra_order[rng.uniform_u64(i)]);
      }
      for (std::size_t j = 0; j < full_batches; ++j) {
        run_batch(ds, intra_order.data(), j * bs, bs);
      }
      for (std::size_t off = full_batches * bs; off < remaining; ++off) {
        const auto f = ds.features(intra_order[off]);
        pending.add(f.index_span(), f.value_span(), ds.labels(intra_order[off]));
      }
    } else {
      std::vector<std::uint32_t> batch_order(full_batches);
      std::iota(batch_order.begin(), batch_order.end(), 0u);
      if (cfg_.shuffle == ShuffleMode::Batches) {
        for (std::size_t i = full_batches; i > 1; --i) {
          std::swap(batch_order[i - 1], batch_order[rng.uniform_u64(i)]);
        }
      }
      for (const std::uint32_t j : batch_order) {
        run_batch(ds, nullptr, consumed + static_cast<std::size_t>(j) * bs, bs);
      }
      for (std::size_t i = consumed + full_batches * bs; i < ds.size(); ++i) {
        const auto f = ds.features(i);
        pending.add(f.index_span(), f.value_span(), ds.labels(i));
      }
    }
    ++chunk_seq;
  }
  // Final ragged batch.
  if (pending.size() > 0) run_batch(pending, nullptr, 0, pending.size());
  const double seconds = timer.seconds();

  stream_stats_.loader_wait_seconds = epoch.wait_seconds();
  stream_stats_.first_chunk_seconds = std::max(0.0, epoch.first_chunk_seconds());
  publish_stream_metrics(seconds);

  double total_loss = 0.0;
  for (const auto& l : loss_partials) total_loss += l.value;
  last_avg_loss_ = stream_stats_.examples > 0
                       ? total_loss / static_cast<double>(stream_stats_.examples)
                       : 0.0;
  return seconds;
}

double Trainer::evaluate_p_at_k(const data::Dataset& test_set, std::size_t k,
                                std::size_t max_examples) {
  ThreadPool& pool = global_pool();
  const std::size_t n = max_examples == 0 ? test_set.size()
                                          : std::min(test_set.size(), max_examples);
  if (n == 0 || k == 0) return 0.0;
  while (eval_blocks_.size() < pool.size()) {
    EvalBlock& b = eval_blocks_.emplace_back();
    for (std::size_t q = 0; q < kQueryBlock; ++q) {
      b.scratch.push_back(net_.make_forward_scratch());
    }
    b.topk.resize(kQueryBlock);
  }

  std::vector<CacheAligned<double>> partials(pool.size());
  pool.parallel_for_dynamic(n, kQueryBlock, [&](unsigned rank, std::size_t lo, std::size_t hi) {
    EvalBlock& b = eval_blocks_[rank];
    data::SparseVectorView xs[kQueryBlock];
    double local = 0.0;
    // A chunk is one block, unless a reentrant call ran the whole range here.
    for (std::size_t b0 = lo; b0 < hi; b0 += kQueryBlock) {
      const std::size_t m = std::min(kQueryBlock, hi - b0);
      for (std::size_t q = 0; q < m; ++q) xs[q] = test_set.features(b0 + q);
      net_.predict_topk({xs, m}, k, {b.scratch.data(), m}, {b.topk.data(), m});
      for (std::size_t q = 0; q < m; ++q) {
        local += precision_at_k(b.topk[q], test_set.labels(b0 + q));
      }
    }
    partials[rank].value += local;
  });

  double total = 0.0;
  for (const auto& p : partials) total += p.value;
  return total / static_cast<double>(n);
}

TrainResult Trainer::train(const data::Dataset& train_set, const data::Dataset& test_set) {
  TrainResult result;
  double cumulative = 0.0;
  for (std::size_t e = 1; e <= cfg_.epochs; ++e) {
    const double secs = train_one_epoch(train_set);
    cumulative += secs;
    EpochRecord rec;
    rec.epoch = e;
    rec.train_seconds = secs;
    rec.cumulative_seconds = cumulative;
    rec.avg_loss = last_avg_loss_;
    rec.p_at_1 = evaluate_p_at_1(test_set, cfg_.eval_max_examples);
    publish_epoch_metrics(rec);
    result.history.push_back(rec);
    if (cfg_.verbose) {
      log_info("epoch ", e, ": time=", secs, "s loss=", rec.avg_loss, " P@1=", rec.p_at_1);
    }
  }
  if (!result.history.empty()) {
    result.avg_epoch_seconds = cumulative / static_cast<double>(result.history.size());
    result.final_p_at_1 = result.history.back().p_at_1;
  }
  return result;
}

TrainResult Trainer::train(data::StreamingDataset& train_stream,
                           const data::Dataset& test_set) {
  TrainResult result;
  double cumulative = 0.0;
  for (std::size_t e = 1; e <= cfg_.epochs; ++e) {
    const double secs = train_one_epoch(train_stream);
    cumulative += secs;
    EpochRecord rec;
    rec.epoch = e;
    rec.train_seconds = secs;
    rec.cumulative_seconds = cumulative;
    rec.avg_loss = last_avg_loss_;
    rec.p_at_1 = evaluate_p_at_1(test_set, cfg_.eval_max_examples);
    publish_epoch_metrics(rec);
    result.history.push_back(rec);
    if (cfg_.verbose) {
      log_info("epoch ", e, ": time=", secs, "s loss=", rec.avg_loss,
               " P@1=", rec.p_at_1, " ttfb=", stream_stats_.first_batch_seconds,
               "s loader_wait=", stream_stats_.loader_wait_seconds, "s");
    }
  }
  if (!result.history.empty()) {
    result.avg_epoch_seconds = cumulative / static_cast<double>(result.history.size());
    result.final_p_at_1 = result.history.back().p_at_1;
  }
  return result;
}

}  // namespace slide
