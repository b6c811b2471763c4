#include "traced_train.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "threading/thread_pool.h"
#include "util/rng.h"

namespace perfbench {

using namespace slide;

void PhaseTotals::add(const PhaseTotals& o) {
  epoch_s += o.epoch_s;
  fwd_busy_s += o.fwd_busy_s;
  bwd_busy_s += o.bwd_busy_s;
  fanout_s += o.fanout_s;
  adam_s += o.adam_s;
  batch_end_s += o.batch_end_s;
  batch_wall_s += o.batch_wall_s;
  data_wait_s += o.data_wait_s;
  first_batch_s += o.first_batch_s;
  loss_sum += o.loss_sum;
  examples += o.examples;
  batches += o.batches;
  rebuilds += o.rebuilds;
  active_sum += o.active_sum;
  chunks += o.chunks;
  loss_finite = loss_finite && o.loss_finite;
}

TracedTrainer::TracedTrainer(Network& net, const TrainerConfig& cfg, Tracer& tracer)
    : net_(net), cfg_(cfg), tracer_(tracer) {}

void TracedTrainer::run_batch(const data::Dataset& ds, std::size_t begin, std::size_t count,
                              std::uint32_t epoch_span, PhaseTotals& t) {
  ThreadPool& pool = global_pool();
  while (workspaces_.size() < pool.size()) {
    workspaces_.push_back(net_.make_workspace(mix64(cfg_.seed, workspaces_.size(), 0x3A7Full)));
  }
  slots_.assign(pool.size(), RankSlot{});

  // Data layer: resolve the batch's example views before the fan-out.
  const auto gather_start = Clock::now();
  xs_.resize(count);
  ys_.resize(count);
  for (std::size_t off = 0; off < count; ++off) {
    xs_[off] = ds.features(begin + off);
    ys_[off] = ds.labels(begin + off);
  }
  const auto batch_start = Clock::now();
  t.data_wait_s += seconds_between(gather_start, batch_start);

  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  const std::size_t grain = std::max<std::size_t>(1, bs / (4 * pool.size()));
  pool.parallel_for_dynamic(count, grain, [&](unsigned rank, std::size_t lo, std::size_t hi) {
    const auto chunk_start = Clock::now();
    Workspace& ws = workspaces_[rank];
    RankSlot& slot = slots_[rank];
    for (std::size_t off = lo; off < hi; ++off) {
      const auto t0 = Clock::now();
      slot.loss += net_.forward(xs_[off], ys_[off], ws, /*train=*/true);
      const auto t1 = Clock::now();
      slot.active += ws.layers.back().active.size();
      net_.backward(xs_[off], ys_[off], ws);
      const auto t2 = Clock::now();
      slot.fwd += seconds_between(t0, t1);
      slot.bwd += seconds_between(t1, t2);
    }
    tracer_.add("core.hogwild_chunk", chunk_start, Clock::now(), epoch_span);
  });
  const auto fanout_end = Clock::now();
  net_.adam_step(cfg_.adam, &pool);
  const auto adam_end = Clock::now();
  t.rebuilds += net_.on_batch_end(&pool);
  const auto batch_end = Clock::now();

  for (const RankSlot& s : slots_) {
    t.fwd_busy_s += s.fwd;
    t.bwd_busy_s += s.bwd;
    t.loss_sum += s.loss;
    t.active_sum += s.active;
  }
  t.fanout_s += seconds_between(batch_start, fanout_end);
  t.adam_s += seconds_between(fanout_end, adam_end);
  t.batch_end_s += seconds_between(adam_end, batch_end);
  t.batch_wall_s += seconds_between(batch_start, batch_end);
  t.examples += count;
  if (t.batches++ == 0) t.first_batch_s = seconds_between(epoch_start_, batch_end);

  tracer_.add("core.fanout", batch_start, fanout_end, epoch_span);
  tracer_.add("core.adam", fanout_end, adam_end, epoch_span);
  tracer_.add("core.batch_end", adam_end, batch_end, epoch_span);
}

PhaseTotals TracedTrainer::epoch(const data::Dataset& train) {
  PhaseTotals t;
  ++epoch_counter_;
  epoch_start_ = Clock::now();
  const std::uint32_t span = tracer_.open("core.epoch");
  const std::size_t n = train.size();
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  const std::size_t num_batches = (n + bs - 1) / bs;
  std::vector<std::size_t> batch_order(num_batches);
  std::iota(batch_order.begin(), batch_order.end(), 0);
  Rng rng(mix64(cfg_.seed, epoch_counter_, 0xBA7C4ull));
  for (std::size_t i = num_batches; i > 1; --i) {
    std::swap(batch_order[i - 1], batch_order[rng.uniform_u64(i)]);
  }
  for (const std::size_t b : batch_order) {
    const std::size_t begin = b * bs;
    run_batch(train, begin, std::min(n, begin + bs) - begin, span, t);
  }
  t.chunks = 1;  // the resident dataset is one chunk
  t.epoch_s = seconds_between(epoch_start_, Clock::now());
  t.loss_finite = std::isfinite(t.loss_sum);
  tracer_.close(span);
  return t;
}

PhaseTotals TracedTrainer::epoch(data::StreamingDataset& train) {
  PhaseTotals t;
  ++epoch_counter_;
  epoch_start_ = Clock::now();
  const std::uint32_t span = tracer_.open("core.epoch");
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  const data::Layout layout = train.config().layout;
  const auto fresh = [&] {
    return data::Dataset(train.feature_dim(), train.label_dim(), layout);
  };
  data::ChunkStream stream = train.begin_epoch(cfg_.seed, epoch_counter_, /*shuffle=*/true);
  data::Dataset pending = fresh();
  std::vector<std::uint32_t> batch_order;
  std::size_t chunk_seq = 0;
  for (;;) {
    const auto wait_start = Clock::now();
    std::optional<data::Dataset> chunk = stream.next();
    tracer_.add("data.next_chunk", wait_start, Clock::now(), span);
    if (!chunk) break;
    const data::Dataset& ds = *chunk;
    ++t.chunks;
    // Batches straddle chunk boundaries, as in Trainer's streaming loop.
    std::size_t consumed = 0;
    while (pending.size() > 0 && pending.size() < bs && consumed < ds.size()) {
      const auto f = ds.features(consumed);
      pending.add(f.index_span(), f.value_span(), ds.labels(consumed));
      ++consumed;
    }
    if (pending.size() == bs) {
      run_batch(pending, 0, bs, span, t);
      pending = fresh();
    }
    if (pending.size() > 0) continue;
    const std::size_t full = (ds.size() - consumed) / bs;
    batch_order.resize(full);
    std::iota(batch_order.begin(), batch_order.end(), 0u);
    Rng rng(mix64(mix64(cfg_.seed, epoch_counter_, 0xBA7C4ull), chunk_seq++, 0x51DEull));
    for (std::size_t i = full; i > 1; --i) {
      std::swap(batch_order[i - 1], batch_order[rng.uniform_u64(i)]);
    }
    for (const std::uint32_t j : batch_order) {
      run_batch(ds, consumed + std::size_t{j} * bs, bs, span, t);
    }
    for (std::size_t i = consumed + full * bs; i < ds.size(); ++i) {
      const auto f = ds.features(i);
      pending.add(f.index_span(), f.value_span(), ds.labels(i));
    }
  }
  if (pending.size() > 0) run_batch(pending, 0, pending.size(), span, t);
  t.data_wait_s += stream.wait_seconds();
  t.epoch_s = seconds_between(epoch_start_, Clock::now());
  t.loss_finite = std::isfinite(t.loss_sum);
  tracer_.close(span);
  return t;
}

void report_core_layers(const PhaseTotals& t, unsigned ranks,
                        const std::vector<double>& trainer_examples_per_s,
                        const std::vector<double>& traced_examples_per_s, Report& report) {
  const double batches = static_cast<double>(std::max<std::size_t>(1, t.batches));
  const double examples = static_cast<double>(std::max<std::size_t>(1, t.examples));
  const double epochs = static_cast<double>(std::max<std::size_t>(1, traced_examples_per_s.size()));
  const double r = static_cast<double>(ranks);
  const double per_batch_ms = 1e3 / batches;
  // Rank-normalized shares of the fan-out wall, so the phases add up to
  // the batch wall time with `other` as the explicit remainder.
  const double fwd_ms = t.fwd_busy_s / r * per_batch_ms;
  const double bwd_ms = t.bwd_busy_s / r * per_batch_ms;
  const double wait_ms = t.fanout_s * per_batch_ms - fwd_ms - bwd_ms;
  const double adam_ms = t.adam_s * per_batch_ms;
  const double end_ms = t.batch_end_s * per_batch_ms;
  const double batch_ms = t.batch_wall_s * per_batch_ms;
  const double other_ms = batch_ms - t.fanout_s * per_batch_ms - adam_ms - end_ms;
  const auto n = t.batches;

  report.set("core.fwd_us_per_example", t.fwd_busy_s * 1e6 / examples, "us", t.examples);
  report.set("core.bwd_us_per_example", t.bwd_busy_s * 1e6 / examples, "us", t.examples);
  report.set("core.fwd_ms_per_batch", fwd_ms, "ms", n);
  report.set("core.bwd_ms_per_batch", bwd_ms, "ms", n);
  report.set("core.hogwild_wait_ms_per_batch", wait_ms, "ms", n);
  report.set("core.adam_ms_per_batch", adam_ms, "ms", n);
  report.set("core.batch_end_ms_per_batch", end_ms, "ms", n);
  report.set("core.other_ms_per_batch", other_ms, "ms", n);
  report.set("core.batch_ms", batch_ms, "ms", n);
  report.set("core.phase_sum_ms",
             fwd_ms + bwd_ms + wait_ms + adam_ms + end_ms + other_ms, "ms", n);
  report.set("core.hogwild_wait_frac",
             t.fanout_s > 0 ? 1.0 - (t.fwd_busy_s + t.bwd_busy_s) / (t.fanout_s * r) : 0.0,
             "ratio", n);
  report.set("core.rebuilds", static_cast<double>(t.rebuilds), "count");
  report.set("core.active_set_mean", static_cast<double>(t.active_sum) / examples, "count",
             t.examples);
  report.set("core.ranks", r, "count");
  report.set("core.trainer_examples_per_s", median(trainer_examples_per_s), "1/s",
             trainer_examples_per_s.size());
  report.set("core.traced_examples_per_s", median(traced_examples_per_s), "1/s",
             traced_examples_per_s.size());
  const double untraced = median(trainer_examples_per_s);
  report.set("obs.trace_overhead_frac",
             untraced > 0 ? 1.0 - median(traced_examples_per_s) / untraced : 0.0, "ratio",
             traced_examples_per_s.size());
  report.set("data.loader_wait_s", t.data_wait_s / epochs, "s", traced_examples_per_s.size());
  report.set("data.first_batch_s", t.first_batch_s / epochs, "s", traced_examples_per_s.size());
  report.set("data.chunks", static_cast<double>(t.chunks) / epochs, "count");
  if (other_ms < -1e-6) report.fail_gate("traced phases exceed the batch wall time");
  if (!t.loss_finite) report.fail_gate("non-finite loss in a traced epoch");
}

}  // namespace perfbench
