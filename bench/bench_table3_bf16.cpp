// Table 3 reproduction: impact of BF16 on average wall-clock time per epoch.
//
// Three modes on the optimized engine (full-thread "CPX" tier):
//   1. BF16 for both activations and weights   (paper: fastest on
//      Amazon/Wiki, slowest on Text8)
//   2. BF16 only for activations
//   3. Without BF16 (fp32)
//
// The paper's CPX has native AVX512-BF16 arithmetic.  On a CPU with
// AVX512_BF16 the avx512bf16 tier computes the bf16 x bf16 row dots (mode
// 1's forward pass) with vdpbf16ps, and the bench reruns both BF16 modes
// under avx512vnni, which widens bf16 to fp32 in registers, so the table
// shows native against widened BF16.  Elsewhere every tier widens, and only
// the memory-traffic half of the BF16 win is reproduced.  Backward passes
// and ADAM widen on every tier.  Each row names the tier it ran on.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace slide::bench {
namespace {

struct PaperRow {
  // Paper's Table 3 entries, expressed as time relative to the dataset's
  // fastest mode (e.g. "1.28x slower" -> 1.28).
  double both, act_only, without;
};

PaperRow paper_numbers(baseline::PaperDataset id) {
  switch (id) {
    case baseline::PaperDataset::Amazon670k: return {1.0, 1.16, 1.28};
    case baseline::PaperDataset::Wiki325k: return {1.0, 1.31, 1.39};
    case baseline::PaperDataset::Text8: return {2.8 * 0.87, 0.87, 1.0};
      // Text8 paper row: both = 2.8x slower than *its* baseline (no-BF16),
      // act-only = 1.15x faster => 1/1.15 = 0.87 of no-BF16.
  }
  return {};
}

void print_row(const SystemResult& r, double fp32_seconds, double paper_ratio) {
  std::printf("%-40s %10.3f %8.4f %17.2fx %17.2fx\n", r.system.c_str(), r.avg_epoch_seconds,
              r.p_at_1, r.avg_epoch_seconds / fp32_seconds, paper_ratio);
}

void run_dataset(baseline::PaperDataset id, std::size_t epochs) {
  const Workload w = make_workload(id);
  std::printf("\n=== %s ===\n", w.name.c_str());

  const auto bf16_rows = [&] {
    const std::string tier = std::string(" [") + kernels::active_isa_name() + "]";
    return std::pair{run_optimized(w, cpx_threads(), Precision::Bf16All, epochs,
                                   "BF16 weights+activations" + tier),
                     run_optimized(w, cpx_threads(), Precision::Bf16Activations, epochs,
                                   "BF16 activations only" + tier)};
  };
  const auto [both, act] = bf16_rows();
  const SystemResult fp32 = run_optimized(
      w, cpx_threads(), Precision::Fp32, epochs,
      std::string("Without BF16 [") + kernels::active_isa_name() + "]");
  std::vector<SystemResult> widened;
  if (kernels::active_isa() == kernels::Isa::Avx512Bf16) {
    kernels::set_isa(kernels::Isa::Avx512Vnni);
    const auto [w_both, w_act] = bf16_rows();
    widened = {w_both, w_act};
    kernels::set_isa(kernels::Isa::Avx512Bf16);
  }

  const PaperRow paper = paper_numbers(id);
  std::printf("%-40s %10s %8s %18s %18s\n", "mode", "epoch (s)", "P@1", "vs no-BF16 (meas)",
              "vs no-BF16 (paper)");
  print_row(both, fp32.avg_epoch_seconds, paper.both / paper.without);
  print_row(act, fp32.avg_epoch_seconds, paper.act_only / paper.without);
  if (!widened.empty()) {
    print_row(widened[0], fp32.avg_epoch_seconds, paper.both / paper.without);
    print_row(widened[1], fp32.avg_epoch_seconds, paper.act_only / paper.without);
  }
  print_row(fp32, fp32.avg_epoch_seconds, 1.0);
}

}  // namespace
}  // namespace slide::bench

int main() {
  using namespace slide::bench;
  print_header("Table 3: impact of BF16 on average wall-clock time per epoch");
  const std::size_t epochs = env_size("SLIDE_BENCH_EPOCHS", 2);
  run_dataset(slide::baseline::PaperDataset::Amazon670k, epochs);
  run_dataset(slide::baseline::PaperDataset::Wiki325k, epochs);
  run_dataset(slide::baseline::PaperDataset::Text8, epochs);
  std::printf(
      "\nRatios < 1 mean the BF16 mode is faster than fp32.  Rows marked [avx512bf16]\n"
      "ran the bf16 x bf16 forward dots natively (vdpbf16ps), as on the paper's CPX;\n"
      "rows on any other tier widen bf16 to fp32, so their gains come from halved\n"
      "memory traffic only.\n");
  slide::set_global_pool_threads(slide::ThreadPool::default_thread_count());
  return 0;
}
