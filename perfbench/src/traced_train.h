// Traced training epochs: drives the same batches as Trainer::hogwild_batch
// through the public Network calls on global_pool(), timing each call from
// outside (forward, backward, ADAM, batch-end table maintenance) and
// recording a span per phase.
//
// Per batch, the wall time from fan-out start to batch-end completion
// splits exactly into
//   fan-out  = (sum of forward busy + sum of backward busy) / ranks + wait
//   adam, batch_end, other (the explicit remainder: clock reads, loss sums)
// where wait is the part of the fan-out wall the ranks spent idle (HOGWILD
// stragglers, pool wake-up).
#pragma once

#include <cstdint>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/stream_reader.h"
#include "report.h"
#include "util/aligned.h"

namespace perfbench {

struct PhaseTotals {
  double epoch_s = 0.0;
  double fwd_busy_s = 0.0;  // summed over ranks
  double bwd_busy_s = 0.0;  // summed over ranks
  double fanout_s = 0.0;    // wall
  double adam_s = 0.0;
  double batch_end_s = 0.0;
  double batch_wall_s = 0.0;
  double data_wait_s = 0.0;     // blocked on the data layer for the next batch
  double first_batch_s = 0.0;   // epoch start -> first batch done
  double loss_sum = 0.0;
  std::size_t examples = 0;
  std::size_t batches = 0;
  std::size_t rebuilds = 0;
  std::size_t active_sum = 0;
  std::size_t chunks = 0;
  bool loss_finite = true;

  void add(const PhaseTotals& o);
};

class TracedTrainer {
 public:
  TracedTrainer(slide::Network& net, const slide::TrainerConfig& cfg, Tracer& tracer);

  PhaseTotals epoch(const slide::data::Dataset& train);
  PhaseTotals epoch(slide::data::StreamingDataset& train);

 private:
  struct alignas(slide::kCacheLineBytes) RankSlot {
    double fwd = 0.0, bwd = 0.0, loss = 0.0;
    std::uint64_t active = 0;
  };

  void run_batch(const slide::data::Dataset& ds, std::size_t begin, std::size_t count,
                 std::uint32_t epoch_span, PhaseTotals& t);

  slide::Network& net_;
  slide::TrainerConfig cfg_;
  Tracer& tracer_;
  std::vector<slide::Workspace> workspaces_;
  std::vector<RankSlot> slots_;
  std::vector<slide::data::SparseVectorView> xs_;
  std::vector<std::span<const std::uint32_t>> ys_;
  std::uint64_t epoch_counter_ = 0;
  Clock::time_point epoch_start_;
};

// core.* and data.* metrics of traced epochs, next to the untraced Trainer
// epochs they alternated with (obs.trace_overhead_frac compares the two).
void report_core_layers(const PhaseTotals& totals, unsigned ranks,
                        const std::vector<double>& trainer_examples_per_s,
                        const std::vector<double>& traced_examples_per_s, Report& report);

}  // namespace perfbench
