// ISA-dispatched compute kernels (paper Sections 4.2-4.4).
//
// Every numeric hot loop in the library goes through this table so that the
// whole engine can be flipped between the AVX-512, AVX2, and scalar reference
// backends at runtime — the AVX-512-vs-scalar switch *is* the paper's Table 4
// ablation ("Impact of AVX-512"), and the AVX2 backend carries the same
// speedup story to the commodity/cloud CPUs that lack AVX-512.  All three
// backends are instantiations of one width-generic implementation layer
// (simd.h + kernels_generic.h); each lives in its own translation unit
// compiled with exactly the -m flags its ISA needs, so the fat binary stays
// runnable on baseline x86-64.
//
// Kernel inventory and the paper mechanism each one implements:
//   dot_f32 / dot_bf16_*      Algorithm 1 (dense x, row-major W): dense inner
//                             product, 16 (fp32) or 32 (bf16) lanes per op.
//   dot_rows_*                Algorithm 1 over many rows and a block of
//                             queries: a 4-row x 4-query register tile, so
//                             each x load feeds 4 rows and each row load 4
//                             queries; a one-query call (nq = 1) runs the
//                             plain 4-row loop, with bit-identical results
//                             (the scalar tier runs blocks query by query).
//   sparse_dot_*              Algorithm 1 applied to a sparse input vector via
//                             AVX-512 gathers (input layer of SLIDE).
//   axpy_*                    Algorithm 2 (sparse x, column-major W): each
//                             non-zero contributes alpha * row into a dense
//                             accumulator.
//   scatter_axpy_f32          Algorithm 2's store direction with sparse
//                             destinations (weight-gradient scatter).
//   sparse_axpy_rows_*        Algorithm 2 over a sparse input and a
//                             feature-major W: out += sum_k x_k * W[idx_k],
//                             with the output tile held in registers across
//                             the whole feature sweep (input-layer forward).
//   backward_rows_*           the backward of a neuron-major layer over its
//                             active rows in one sweep: G[row] += g_r * x and
//                             x_grad += g_r * W[row], with the x and x_grad
//                             tiles held in registers; rows with g_r == 0 are
//                             skipped and their gradient rows left untouched.
//   adam_step_*               Fig. 3: vectorized ADAM update over contiguous
//                             weight/momentum/velocity/gradient rows.
//   fp32_to_bf16 / bf16_to_fp32  Section 4.4 quantization (round-to-nearest-
//                             even, matching VCVTNEPS2BF16 semantics).
//   first_above_f32           the ranking scan: the next score above the
//                             running top-k's k-th best (core/metrics.h), so
//                             a wide output layer's logits cost one vector
//                             compare per W scores instead of a heap test each.
//   softmax_f32, relu_f32, reduce_*, fill_f32, gather_f32,
//   gather_scatter_f32, wta_winners_f32
//                             layer activations, evaluation, and the DWTA
//                             hashing pipeline of Section 4.3.3.
//
// Preconditions shared by all kernels: pointers may alias only where a
// parameter is documented as in/out; `n` may be zero; index arrays used with
// scatter kernels must contain unique indices (guaranteed by SparseBatch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bf16.h"

namespace slide::kernels {

// Priority order for automatic selection: highest value wins.  Avx512Vnni is
// the AVX-512 table with the u8xs8 dot kernels fused into single vpdpbusd
// instructions (every fp32 kernel is identical to the Avx512 tier).
enum class Isa { Scalar, Avx2, Avx512, Avx512Vnni };

// Function-pointer table filled in by each backend translation unit.
struct KernelTable {
  float (*dot_f32)(const float* a, const float* b, std::size_t n);
  float (*dot_bf16_f32)(const bf16* a, const float* b, std::size_t n);
  float (*dot_bf16_bf16)(const bf16* a, const bf16* b, std::size_t n);

  float (*sparse_dot_f32)(const std::uint32_t* idx, const float* val, std::size_t nnz,
                          const float* w);
  float (*sparse_dot_bf16)(const std::uint32_t* idx, const float* val, std::size_t nnz,
                           const bf16* w);

  void (*axpy_f32)(float alpha, const float* x, float* y, std::size_t n);
  void (*axpy_bf16)(float alpha, const bf16* x, float* y, std::size_t n);
  void (*scatter_axpy_f32)(float alpha, const std::uint32_t* idx, const float* val,
                           std::size_t nnz, float* w);
  // out[j] += sum_k val[k] * w[idx[k]*ld + j] for j in [0, n): nnz rows of a
  // feature-major arena, summed in k order per output lane.
  void (*sparse_axpy_rows_f32)(const std::uint32_t* idx, const float* val, std::size_t nnz,
                               const float* w, std::size_t ld, float* out, std::size_t n);
  void (*sparse_axpy_rows_bf16)(const std::uint32_t* idx, const float* val, std::size_t nnz,
                                const bf16* w, std::size_t ld, float* out, std::size_t n);

  void (*scale_f32)(float alpha, float* x, std::size_t n);
  void (*fill_f32)(float* x, std::size_t n, float value);
  void (*relu_f32)(float* x, std::size_t n);
  float (*reduce_sum_f32)(const float* x, std::size_t n);
  float (*reduce_max_f32)(const float* x, std::size_t n);
  std::size_t (*first_above_f32)(const float* x, std::size_t n, float threshold);
  void (*softmax_f32)(float* x, std::size_t n);

  void (*fp32_to_bf16)(const float* src, bf16* dst, std::size_t n);
  void (*bf16_to_fp32)(const bf16* src, float* dst, std::size_t n);

  void (*adam_step_f32)(float* w, float* m, float* v, float* g, std::size_t n, float lr,
                        float beta1, float beta2, float eps, float inv_bias1,
                        float inv_bias2);
  void (*adam_step_bf16)(bf16* w, float* m, float* v, float* g, std::size_t n, float lr,
                         float beta1, float beta2, float eps, float inv_bias1,
                         float inv_bias2);

  // Multi-row dots over a query block: out[q][r] = <row(r), x[q]> for q in
  // [0, nq) (nq >= 1), where row(r) = w + rows[r]*ld (rows == nullptr means
  // consecutive rows 0..nrows-1) and x[q], out[q] are query q's n inputs and
  // nrows outputs.  Rows go 4 per pass so each x load feeds 4 FMAs — the
  // batched form of Algorithm 1 — and each loaded row vector feeds 4
  // queries.  Every (row, query) dot is computed exactly as a one-query
  // call computes it, so out[q] never depends on the rest of the block.
  void (*dot_rows_f32)(const float* w, std::size_t ld, const std::uint32_t* rows,
                       std::size_t nrows, const float* const* x, std::size_t nq,
                       std::size_t n, float* const* out);
  void (*dot_rows_wf32_xbf16)(const float* w, std::size_t ld, const std::uint32_t* rows,
                              std::size_t nrows, const bf16* const* x, std::size_t nq,
                              std::size_t n, float* const* out);
  void (*dot_rows_wbf16_xbf16)(const bf16* w, std::size_t ld, const std::uint32_t* rows,
                               std::size_t nrows, const bf16* const* x, std::size_t nq,
                               std::size_t n, float* const* out);
  // For r in [0, nrows), in r order, skipping rows with g[r] == 0:
  // gw[row(r)] += g[r] * x and xgrad += g[r] * w[row(r)] over n columns,
  // with row(r) = rows[r] * ld as in dot_rows_f32 (the gradient arena gw
  // shares w's row order).  Bit-identical to axpy_f32(g[r], x, gw row)
  // followed by axpy_{f32,bf16}(g[r], w row, xgrad), row by row.
  void (*backward_rows_f32)(const float* w, float* gw, std::size_t ld,
                            const std::uint32_t* rows, const float* g, std::size_t nrows,
                            const float* x, float* xgrad, std::size_t n);
  void (*backward_rows_bf16)(const bf16* w, float* gw, std::size_t ld,
                             const std::uint32_t* rows, const float* g, std::size_t nrows,
                             const float* x, float* xgrad, std::size_t n);

  void (*gather_f32)(float* dst, const float* src, const std::uint32_t* idx, std::size_t n);
  void (*gather_scatter_f32)(float* dst, const std::uint32_t* dst_idx, const float* src,
                             const std::uint32_t* src_idx, std::size_t n);
  // For each bin b in [0,num_bins): winners[b] = index in [0,8) of the max of
  // values[8b .. 8b+8); values of -FLT_MAX mark absent slots.  Fixed bin
  // width of 8 matches the paper's DWTA configuration.
  void (*wta_winners_f32)(const float* values, std::size_t num_bins, std::uint8_t* winners);

  // --- int8 quantized inference kernels ----------------------------------
  // u8 activations x s8 weights with i32 accumulation.  Activation bytes
  // must stay in [0, 127] (the quantize_u8 contract): the AVX2/AVX-512BW
  // backends form u8*s8 pair sums in saturating i16 via vpmaddubsw, and the
  // 7-bit ceiling (2 * 127 * 127 < 32768) is what keeps every backend
  // bit-exact against the scalar reference.
  std::int32_t (*dot_u8s8)(const std::uint8_t* a, const std::int8_t* b, std::size_t n);
  // *dot = sum val[k] * w[idx[k]]; *wsum = sum w[idx[k]] (the caller folds
  // the activation zero-point out of the i32 total as zp * wsum).
  void (*sparse_dot_u8s8)(const std::uint32_t* idx, const std::uint8_t* val,
                          std::size_t nnz, const std::int8_t* w, std::int32_t* dot,
                          std::int32_t* wsum);
  // out[q][r] = <row(r), x[q]> in i32; same rows and query block as
  // dot_rows_f32.
  void (*dot_rows_u8s8)(const std::int8_t* w, std::size_t ld, const std::uint32_t* rows,
                        std::size_t nrows, const std::uint8_t* const* x, std::size_t nq,
                        std::size_t n, std::int32_t* const* out);
  // Feature-major twin of sparse_dot_u8s8: for j in [0, n),
  // dot[j] = sum_k val[k] * w[idx[k]*ld + j] and wsum[j] = sum_k w[idx[k]*ld + j]
  // — per column j, exactly the integers sparse_dot_u8s8 returns for the
  // neuron-major row j.
  void (*sparse_axpy_rows_u8s8)(const std::uint32_t* idx, const std::uint8_t* val,
                                std::size_t nnz, const std::int8_t* w, std::size_t ld,
                                std::int32_t* dot, std::int32_t* wsum, std::size_t n);
  // dst[i] = clamp(nearbyint(src[i] * inv_scale) + zero_point, 0, 127).
  void (*quantize_u8)(const float* src, std::uint8_t* dst, std::size_t n, float inv_scale,
                      std::int32_t zero_point);
  // dst[i] = scale * (src[i] - zero_point).
  void (*dequantize_u8)(const std::uint8_t* src, float* dst, std::size_t n, float scale,
                        std::int32_t zero_point);

  const char* name;
};

namespace detail {
const KernelTable* active_table();
}

// --- Backend selection -------------------------------------------------
//
// The initial backend is the best available one, unless the SLIDE_ISA
// environment variable (scalar | avx2 | avx512 | auto) names another; an
// unavailable or unrecognized SLIDE_ISA logs a warning and falls back to the
// best available backend (mirroring SLIDE_NUM_THREADS's "env configures the
// default" contract).

// True when the AVX-512 backend was compiled in AND the CPU supports it.
bool avx512_available();
// True when the AVX-512 VNNI backend was compiled in AND the CPU supports
// both the AVX-512 base set and VNNI.
bool avx512_vnni_available();
// True when the AVX2 backend was compiled in AND the CPU supports AVX2+FMA.
bool avx2_available();
bool isa_available(Isa isa);
// Every backend usable on this CPU/build, in ascending priority order
// (Scalar is always present and always first).
std::vector<Isa> available_isas();
// The backend automatic selection would pick (the last of available_isas()).
Isa preferred_isa();
// Selects a backend; returns false (and leaves the selection unchanged) if
// the requested backend is unavailable.  Thread-safe, but intended to be
// called between training runs, not concurrently with them.
bool set_isa(Isa isa);
Isa active_isa();
const char* active_isa_name();
// Canonical lowercase name ("scalar" | "avx2" | "avx512" | "avx512vnni").
const char* isa_name(Isa isa);
// Parses a canonical name; returns false (out untouched) for anything else.
bool parse_isa(std::string_view name, Isa* out);

// --- Dispatched entry points --------------------------------------------

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  return detail::active_table()->dot_f32(a, b, n);
}
inline float dot_bf16_f32(const bf16* a, const float* b, std::size_t n) {
  return detail::active_table()->dot_bf16_f32(a, b, n);
}
inline float dot_bf16_bf16(const bf16* a, const bf16* b, std::size_t n) {
  return detail::active_table()->dot_bf16_bf16(a, b, n);
}
inline float sparse_dot_f32(const std::uint32_t* idx, const float* val, std::size_t nnz,
                            const float* w) {
  return detail::active_table()->sparse_dot_f32(idx, val, nnz, w);
}
inline float sparse_dot_bf16(const std::uint32_t* idx, const float* val, std::size_t nnz,
                             const bf16* w) {
  return detail::active_table()->sparse_dot_bf16(idx, val, nnz, w);
}
inline void axpy_f32(float alpha, const float* x, float* y, std::size_t n) {
  detail::active_table()->axpy_f32(alpha, x, y, n);
}
inline void axpy_bf16(float alpha, const bf16* x, float* y, std::size_t n) {
  detail::active_table()->axpy_bf16(alpha, x, y, n);
}
inline void scatter_axpy_f32(float alpha, const std::uint32_t* idx, const float* val,
                             std::size_t nnz, float* w) {
  detail::active_table()->scatter_axpy_f32(alpha, idx, val, nnz, w);
}
inline void sparse_axpy_rows_f32(const std::uint32_t* idx, const float* val, std::size_t nnz,
                                 const float* w, std::size_t ld, float* out, std::size_t n) {
  detail::active_table()->sparse_axpy_rows_f32(idx, val, nnz, w, ld, out, n);
}
inline void sparse_axpy_rows_bf16(const std::uint32_t* idx, const float* val, std::size_t nnz,
                                  const bf16* w, std::size_t ld, float* out, std::size_t n) {
  detail::active_table()->sparse_axpy_rows_bf16(idx, val, nnz, w, ld, out, n);
}
inline void scale_f32(float alpha, float* x, std::size_t n) {
  detail::active_table()->scale_f32(alpha, x, n);
}
inline void fill_f32(float* x, std::size_t n, float value) {
  detail::active_table()->fill_f32(x, n, value);
}
inline void relu_f32(float* x, std::size_t n) { detail::active_table()->relu_f32(x, n); }
inline float reduce_sum_f32(const float* x, std::size_t n) {
  return detail::active_table()->reduce_sum_f32(x, n);
}
// Requires n >= 1.
inline float reduce_max_f32(const float* x, std::size_t n) {
  return detail::active_table()->reduce_max_f32(x, n);
}
// The first i in [0, n) with x[i] > threshold, or n when there is none.  The
// compare is ordered: a NaN on either side never passes.
inline std::size_t first_above_f32(const float* x, std::size_t n, float threshold) {
  return detail::active_table()->first_above_f32(x, n, threshold);
}
// Numerically stable in-place softmax; no-op when n == 0.
inline void softmax_f32(float* x, std::size_t n) { detail::active_table()->softmax_f32(x, n); }
inline void fp32_to_bf16(const float* src, bf16* dst, std::size_t n) {
  detail::active_table()->fp32_to_bf16(src, dst, n);
}
inline void bf16_to_fp32(const bf16* src, float* dst, std::size_t n) {
  detail::active_table()->bf16_to_fp32(src, dst, n);
}
// ADAM with bias correction factors precomputed by the caller:
// inv_bias1 = 1/(1-beta1^t), inv_bias2 = 1/(1-beta2^t).  Zeroes g.
inline void adam_step_f32(float* w, float* m, float* v, float* g, std::size_t n, float lr,
                          float beta1, float beta2, float eps, float inv_bias1,
                          float inv_bias2) {
  detail::active_table()->adam_step_f32(w, m, v, g, n, lr, beta1, beta2, eps, inv_bias1,
                                        inv_bias2);
}
inline void adam_step_bf16(bf16* w, float* m, float* v, float* g, std::size_t n, float lr,
                           float beta1, float beta2, float eps, float inv_bias1,
                           float inv_bias2) {
  detail::active_table()->adam_step_bf16(w, m, v, g, n, lr, beta1, beta2, eps, inv_bias1,
                                         inv_bias2);
}
// One query (x, out) or a block of nq (x[q], out[q]); see KernelTable.
inline void dot_rows_f32(const float* w, std::size_t ld, const std::uint32_t* rows,
                         std::size_t nrows, const float* x, std::size_t n, float* out) {
  detail::active_table()->dot_rows_f32(w, ld, rows, nrows, &x, 1, n, &out);
}
inline void dot_rows_f32(const float* w, std::size_t ld, const std::uint32_t* rows,
                         std::size_t nrows, const float* const* x, std::size_t nq,
                         std::size_t n, float* const* out) {
  detail::active_table()->dot_rows_f32(w, ld, rows, nrows, x, nq, n, out);
}
inline void dot_rows_wf32_xbf16(const float* w, std::size_t ld, const std::uint32_t* rows,
                                std::size_t nrows, const bf16* x, std::size_t n,
                                float* out) {
  detail::active_table()->dot_rows_wf32_xbf16(w, ld, rows, nrows, &x, 1, n, &out);
}
inline void dot_rows_wf32_xbf16(const float* w, std::size_t ld, const std::uint32_t* rows,
                                std::size_t nrows, const bf16* const* x, std::size_t nq,
                                std::size_t n, float* const* out) {
  detail::active_table()->dot_rows_wf32_xbf16(w, ld, rows, nrows, x, nq, n, out);
}
inline void dot_rows_wbf16_xbf16(const bf16* w, std::size_t ld, const std::uint32_t* rows,
                                 std::size_t nrows, const bf16* x, std::size_t n,
                                 float* out) {
  detail::active_table()->dot_rows_wbf16_xbf16(w, ld, rows, nrows, &x, 1, n, &out);
}
inline void dot_rows_wbf16_xbf16(const bf16* w, std::size_t ld, const std::uint32_t* rows,
                                 std::size_t nrows, const bf16* const* x, std::size_t nq,
                                 std::size_t n, float* const* out) {
  detail::active_table()->dot_rows_wbf16_xbf16(w, ld, rows, nrows, x, nq, n, out);
}
inline void backward_rows_f32(const float* w, float* gw, std::size_t ld,
                              const std::uint32_t* rows, const float* g, std::size_t nrows,
                              const float* x, float* xgrad, std::size_t n) {
  detail::active_table()->backward_rows_f32(w, gw, ld, rows, g, nrows, x, xgrad, n);
}
inline void backward_rows_bf16(const bf16* w, float* gw, std::size_t ld,
                               const std::uint32_t* rows, const float* g, std::size_t nrows,
                               const float* x, float* xgrad, std::size_t n) {
  detail::active_table()->backward_rows_bf16(w, gw, ld, rows, g, nrows, x, xgrad, n);
}
inline void gather_f32(float* dst, const float* src, const std::uint32_t* idx,
                       std::size_t n) {
  detail::active_table()->gather_f32(dst, src, idx, n);
}
// dst[dst_idx[k]] = src[src_idx[k]]; dst_idx entries must be unique.
inline void gather_scatter_f32(float* dst, const std::uint32_t* dst_idx, const float* src,
                               const std::uint32_t* src_idx, std::size_t n) {
  detail::active_table()->gather_scatter_f32(dst, dst_idx, src, src_idx, n);
}
inline void wta_winners_f32(const float* values, std::size_t num_bins,
                            std::uint8_t* winners) {
  detail::active_table()->wta_winners_f32(values, num_bins, winners);
}
inline std::int32_t dot_u8s8(const std::uint8_t* a, const std::int8_t* b, std::size_t n) {
  return detail::active_table()->dot_u8s8(a, b, n);
}
inline void sparse_dot_u8s8(const std::uint32_t* idx, const std::uint8_t* val,
                            std::size_t nnz, const std::int8_t* w, std::int32_t* dot,
                            std::int32_t* wsum) {
  detail::active_table()->sparse_dot_u8s8(idx, val, nnz, w, dot, wsum);
}
inline void dot_rows_u8s8(const std::int8_t* w, std::size_t ld, const std::uint32_t* rows,
                          std::size_t nrows, const std::uint8_t* x, std::size_t n,
                          std::int32_t* out) {
  detail::active_table()->dot_rows_u8s8(w, ld, rows, nrows, &x, 1, n, &out);
}
inline void dot_rows_u8s8(const std::int8_t* w, std::size_t ld, const std::uint32_t* rows,
                          std::size_t nrows, const std::uint8_t* const* x, std::size_t nq,
                          std::size_t n, std::int32_t* const* out) {
  detail::active_table()->dot_rows_u8s8(w, ld, rows, nrows, x, nq, n, out);
}
inline void sparse_axpy_rows_u8s8(const std::uint32_t* idx, const std::uint8_t* val,
                                  std::size_t nnz, const std::int8_t* w, std::size_t ld,
                                  std::int32_t* dot, std::int32_t* wsum, std::size_t n) {
  detail::active_table()->sparse_axpy_rows_u8s8(idx, val, nnz, w, ld, dot, wsum, n);
}
inline void quantize_u8(const float* src, std::uint8_t* dst, std::size_t n, float inv_scale,
                        std::int32_t zero_point) {
  detail::active_table()->quantize_u8(src, dst, n, inv_scale, zero_point);
}
inline void dequantize_u8(const std::uint8_t* src, float* dst, std::size_t n, float scale,
                          std::int32_t zero_point) {
  detail::active_table()->dequantize_u8(src, dst, n, scale, zero_point);
}

}  // namespace slide::kernels
