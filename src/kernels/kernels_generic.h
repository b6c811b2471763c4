// Width-generic kernel implementations (paper Sections 4.2-4.4).
//
// Every KernelTable entry is implemented once here, templated on a SIMD
// trait from simd.h; each backend TU instantiates the whole table at its
// lane width via make_kernel_table<S>() and overrides only the few entries
// where the ISA genuinely diverges (today: the 8-wide WTA winner extraction,
// which wants opmask/movemask idioms the trait layer doesn't model).
//
// Structure mirrors the original hand-written AVX-512 backend exactly —
// 2-accumulator unrolled dots, 4-row-blocked multi-row dots, masked tails —
// so instantiating at W=16 reproduces its numerics, while W=1 degenerates to
// the plain in-order loops of the scalar reference (dot products special-case
// W==1 to keep the reference's single-accumulator summation order).
#pragma once

#include <cfloat>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "kernels/kernels.h"
#include "kernels/simd.h"

namespace slide::kernels {

template <class S>
struct GenericKernels {
  using vf = typename S::vf;
  using vi = typename S::vi;
  static constexpr std::size_t W = S::W;

  // Element loads generic over fp32/bf16 so the dot/dot_rows family is
  // written once for all precision combinations.
  template <class T>
  static vf load_elems(const T* p) {
    if constexpr (std::is_same_v<T, float>) {
      return S::loadu(p);
    } else {
      return S::load_bf16(p);
    }
  }
  template <class T>
  static vf load_elems_partial(const T* p, std::size_t rem) {
    if constexpr (std::is_same_v<T, float>) {
      return S::load_partial(p, rem);
    } else {
      return S::load_bf16_partial(p, rem);
    }
  }
  template <class T>
  static float to_f32(T x) {
    if constexpr (std::is_same_v<T, float>) {
      return x;
    } else {
      return x.to_float();
    }
  }

  // --- dots ----------------------------------------------------------------

  template <class TA, class TB>
  static float dot_any(const TA* a, const TB* b, std::size_t n) {
    if constexpr (W == 1) {
      float s = 0.0f;
      for (std::size_t i = 0; i < n; ++i) s += to_f32(a[i]) * to_f32(b[i]);
      return s;
    } else {
      // Two accumulators: one load pair per FMA, hiding the FMA latency.
      vf acc0 = S::zero();
      vf acc1 = S::zero();
      std::size_t i = 0;
      for (; i + 2 * W <= n; i += 2 * W) {
        acc0 = S::fmadd(load_elems(a + i), load_elems(b + i), acc0);
        acc1 = S::fmadd(load_elems(a + i + W), load_elems(b + i + W), acc1);
      }
      for (; i + W <= n; i += W) {
        acc0 = S::fmadd(load_elems(a + i), load_elems(b + i), acc0);
      }
      if (i < n) {
        const std::size_t rem = n - i;
        acc1 = S::fmadd(load_elems_partial(a + i, rem), load_elems_partial(b + i, rem), acc1);
      }
      return S::reduce_add(S::add(acc0, acc1));
    }
  }

  static float dot_f32(const float* a, const float* b, std::size_t n) {
    return dot_any(a, b, n);
  }
  static float dot_bf16_f32(const bf16* a, const float* b, std::size_t n) {
    return dot_any(a, b, n);
  }
  static float dot_bf16_bf16(const bf16* a, const bf16* b, std::size_t n) {
    return dot_any(a, b, n);
  }

  static float sparse_dot_f32(const std::uint32_t* idx, const float* val, std::size_t nnz,
                              const float* w) {
    vf acc = S::zero();
    std::size_t k = 0;
    for (; k + W <= nnz; k += W) {
      acc = S::fmadd(S::loadu(val + k), S::gather(w, S::load_idx(idx + k)), acc);
    }
    if (k < nnz) {
      const std::size_t rem = nnz - k;
      acc = S::fmadd(S::load_partial(val + k, rem), S::gather_partial(w, idx + k, rem), acc);
    }
    return S::reduce_add(acc);
  }

  static float sparse_dot_bf16(const std::uint32_t* idx, const float* val, std::size_t nnz,
                               const bf16* w) {
    // bf16 rows cannot be gathered directly (vpgatherd* works on 32-bit
    // elements); gather element-wise but keep the FMA accumulation vectorized
    // by staging W widened weights at a time.
    alignas(64) float staged[W];
    vf acc = S::zero();
    std::size_t k = 0;
    for (; k + W <= nnz; k += W) {
      for (std::size_t j = 0; j < W; ++j) staged[j] = w[idx[k + j]].to_float();
      acc = S::fmadd(S::loadu(val + k), S::loadu(staged), acc);
    }
    float s = S::reduce_add(acc);
    for (; k < nnz; ++k) s += val[k] * w[idx[k]].to_float();
    return s;
  }

  // --- axpy family ----------------------------------------------------------

  template <class T>
  static void axpy_any(float alpha, const T* x, float* y, std::size_t n) {
    const vf va = S::set1(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      S::storeu(y + i, S::fmadd(va, load_elems(x + i), S::loadu(y + i)));
    }
    if (i < n) {
      const std::size_t rem = n - i;
      const vf r = S::fmadd(va, load_elems_partial(x + i, rem), S::load_partial(y + i, rem));
      S::store_partial(y + i, rem, r);
    }
  }

  static void axpy_f32(float alpha, const float* x, float* y, std::size_t n) {
    axpy_any(alpha, x, y, n);
  }
  static void axpy_bf16(float alpha, const bf16* x, float* y, std::size_t n) {
    axpy_any(alpha, x, y, n);
  }

  static void scatter_axpy_f32(float alpha, const std::uint32_t* idx, const float* val,
                               std::size_t nnz, float* w) {
    // Requires unique indices within one call: gather/modify/scatter would
    // lose updates on duplicates.  SparseBatch guarantees strictly increasing
    // indices per example.
    const vf va = S::set1(alpha);
    std::size_t k = 0;
    for (; k + W <= nnz; k += W) {
      const vi vidx = S::load_idx(idx + k);
      const vf wv = S::gather(w, vidx);
      S::scatter(w, vidx, S::fmadd(va, S::loadu(val + k), wv));
    }
    for (; k < nnz; ++k) w[idx[k]] += alpha * val[k];
  }

  // --- feature-major sparse products (Algorithm 2) ---------------------------
  // Output tiles of four vectors stay in registers for the whole feature
  // sweep: each of the nnz weight rows is streamed once, and the output is
  // loaded and stored once per tile instead of once per feature.  Every
  // output lane sums its terms in k order, at every width.

  template <class T>
  static void sparse_axpy_rows_any(const std::uint32_t* idx, const float* val, std::size_t nnz,
                                   const T* w, std::size_t ld, float* out, std::size_t n) {
    std::size_t j = 0;
    for (; j + 4 * W <= n; j += 4 * W) {
      vf a0 = S::loadu(out + j), a1 = S::loadu(out + j + W);
      vf a2 = S::loadu(out + j + 2 * W), a3 = S::loadu(out + j + 3 * W);
      for (std::size_t k = 0; k < nnz; ++k) {
        const T* row = w + std::size_t{idx[k]} * ld + j;
        const vf xv = S::set1(val[k]);
        a0 = S::fmadd(xv, load_elems(row), a0);
        a1 = S::fmadd(xv, load_elems(row + W), a1);
        a2 = S::fmadd(xv, load_elems(row + 2 * W), a2);
        a3 = S::fmadd(xv, load_elems(row + 3 * W), a3);
      }
      S::storeu(out + j, a0);
      S::storeu(out + j + W, a1);
      S::storeu(out + j + 2 * W, a2);
      S::storeu(out + j + 3 * W, a3);
    }
    for (; j < n; j += W) {
      const std::size_t rem = n - j < W ? n - j : W;
      vf a = S::load_partial(out + j, rem);
      for (std::size_t k = 0; k < nnz; ++k) {
        a = S::fmadd(S::set1(val[k]),
                     load_elems_partial(w + std::size_t{idx[k]} * ld + j, rem), a);
      }
      S::store_partial(out + j, rem, a);
    }
  }

  static void sparse_axpy_rows_f32(const std::uint32_t* idx, const float* val, std::size_t nnz,
                                   const float* w, std::size_t ld, float* out, std::size_t n) {
    sparse_axpy_rows_any(idx, val, nnz, w, ld, out, n);
  }
  static void sparse_axpy_rows_bf16(const std::uint32_t* idx, const float* val,
                                    std::size_t nnz, const bf16* w, std::size_t ld, float* out,
                                    std::size_t n) {
    sparse_axpy_rows_any(idx, val, nnz, w, ld, out, n);
  }

  // --- elementwise -----------------------------------------------------------

  static void scale_f32(float alpha, float* x, std::size_t n) {
    const vf va = S::set1(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) S::storeu(x + i, S::mul(va, S::loadu(x + i)));
    if (i < n) {
      const std::size_t rem = n - i;
      S::store_partial(x + i, rem, S::mul(va, S::load_partial(x + i, rem)));
    }
  }

  static void fill_f32(float* x, std::size_t n, float value) {
    const vf v = S::set1(value);
    std::size_t i = 0;
    for (; i + W <= n; i += W) S::storeu(x + i, v);
    if (i < n) S::store_partial(x + i, n - i, v);
  }

  static void relu_f32(float* x, std::size_t n) {
    const vf zero = S::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W) S::storeu(x + i, S::max(zero, S::loadu(x + i)));
    if (i < n) {
      const std::size_t rem = n - i;
      S::store_partial(x + i, rem, S::max(zero, S::load_partial(x + i, rem)));
    }
  }

  static float reduce_sum_f32(const float* x, std::size_t n) {
    vf acc = S::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W) acc = S::add(acc, S::loadu(x + i));
    if (i < n) acc = S::add(acc, S::load_partial(x + i, n - i));
    return S::reduce_add(acc);
  }

  static float reduce_max_f32(const float* x, std::size_t n) {
    vf acc = S::set1(-FLT_MAX);
    std::size_t i = 0;
    for (; i + W <= n; i += W) acc = S::max(acc, S::loadu(x + i));
    if (i < n) {
      const std::size_t rem = n - i;
      // Inactive tail lanes must not poison the max: refill them with the
      // identity element before folding.
      acc = S::max(acc, S::select(S::partial_mask(rem), S::load_partial(x + i, rem),
                                  S::set1(-FLT_MAX)));
    }
    return S::reduce_max(acc);
  }

  // The first i with x[i] > threshold, or n.  The compare is ordered, so a
  // NaN score never passes and a NaN threshold passes nothing.
  static std::size_t first_above_f32(const float* x, std::size_t n, float threshold) {
    if constexpr (W == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        if (x[i] > threshold) return i;
      }
      return n;
    } else {
      const vf t = S::set1(threshold);
      std::size_t i = 0;
      for (; i + W <= n; i += W) {
        const unsigned hits = S::mask_bits(S::cmp_gt(S::loadu(x + i), t));
        if (hits != 0) return i + static_cast<std::size_t>(__builtin_ctz(hits));
      }
      if (i < n) {
        // The zero-filled lanes past n must not count as hits.
        const std::size_t rem = n - i;
        const unsigned hits =
            S::mask_bits(S::cmp_gt(S::load_partial(x + i, rem), t)) & ((1u << rem) - 1u);
        if (hits != 0) return i + static_cast<std::size_t>(__builtin_ctz(hits));
      }
      return n;
    }
  }

  static void softmax_f32(float* x, std::size_t n) {
    if (n == 0) return;
    const vf vm = S::set1(reduce_max_f32(x, n));
    vf vsum = S::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const vf e = S::exp(S::sub(S::loadu(x + i), vm));
      S::storeu(x + i, e);
      vsum = S::add(vsum, e);
    }
    if (i < n) {
      const std::size_t rem = n - i;
      const vf e = S::exp(S::sub(S::load_partial(x + i, rem), vm));
      S::store_partial(x + i, rem, e);
      vsum = S::add(vsum, S::select(S::partial_mask(rem), e, S::zero()));
    }
    scale_f32(1.0f / S::reduce_add(vsum), x, n);
  }

  // --- bf16 conversion --------------------------------------------------------

  static void fp32_to_bf16(const float* src, bf16* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) S::store_bf16(dst + i, S::loadu(src + i));
    if (i < n) {
      const std::size_t rem = n - i;
      S::store_bf16_partial(dst + i, rem, S::load_partial(src + i, rem));
    }
  }

  static void bf16_to_fp32(const bf16* src, float* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) S::storeu(dst + i, S::load_bf16(src + i));
    if (i < n) {
      const std::size_t rem = n - i;
      S::store_partial(dst + i, rem, S::load_bf16_partial(src + i, rem));
    }
  }

  // --- ADAM (Fig. 3) ----------------------------------------------------------

  struct AdamVectors {
    vf m, v, update;
  };

  static AdamVectors adam_core(vf g, vf m, vf v, vf b1, vf b2, vf lr, vf eps, vf inv1,
                               vf inv2) {
    const vf one = S::set1(1.0f);
    m = S::fmadd(b1, m, S::mul(S::sub(one, b1), g));
    v = S::fmadd(b2, v, S::mul(S::sub(one, b2), S::mul(g, g)));
    const vf mhat = S::mul(m, inv1);
    const vf vhat = S::mul(v, inv2);
    const vf denom = S::add(S::sqrt(vhat), eps);
    return {m, v, S::div(S::mul(lr, mhat), denom)};
  }

  template <class TW>
  static void adam_step_any(TW* w, float* m, float* v, float* g, std::size_t n, float lr,
                            float beta1, float beta2, float eps, float inv_bias1,
                            float inv_bias2) {
    const vf vb1 = S::set1(beta1);
    const vf vb2 = S::set1(beta2);
    const vf vlr = S::set1(lr);
    const vf veps = S::set1(eps);
    const vf vin1 = S::set1(inv_bias1);
    const vf vin2 = S::set1(inv_bias2);
    const vf zero = S::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const AdamVectors r = adam_core(S::loadu(g + i), S::loadu(m + i), S::loadu(v + i),
                                      vb1, vb2, vlr, veps, vin1, vin2);
      S::storeu(m + i, r.m);
      S::storeu(v + i, r.v);
      if constexpr (std::is_same_v<TW, float>) {
        S::storeu(w + i, S::sub(S::loadu(w + i), r.update));
      } else {
        S::store_bf16(w + i, S::sub(S::load_bf16(w + i), r.update));
      }
      S::storeu(g + i, zero);
    }
    if (i < n) {
      const std::size_t rem = n - i;
      const AdamVectors r =
          adam_core(S::load_partial(g + i, rem), S::load_partial(m + i, rem),
                    S::load_partial(v + i, rem), vb1, vb2, vlr, veps, vin1, vin2);
      S::store_partial(m + i, rem, r.m);
      S::store_partial(v + i, rem, r.v);
      if constexpr (std::is_same_v<TW, float>) {
        S::store_partial(w + i, rem, S::sub(S::load_partial(w + i, rem), r.update));
      } else {
        S::store_bf16_partial(w + i, rem, S::sub(S::load_bf16_partial(w + i, rem), r.update));
      }
      S::store_partial(g + i, rem, zero);
    }
  }

  static void adam_step_f32(float* w, float* m, float* v, float* g, std::size_t n, float lr,
                            float beta1, float beta2, float eps, float inv_bias1,
                            float inv_bias2) {
    adam_step_any(w, m, v, g, n, lr, beta1, beta2, eps, inv_bias1, inv_bias2);
  }
  static void adam_step_bf16(bf16* w, float* m, float* v, float* g, std::size_t n, float lr,
                             float beta1, float beta2, float eps, float inv_bias1,
                             float inv_bias2) {
    adam_step_any(w, m, v, g, n, lr, beta1, beta2, eps, inv_bias1, inv_bias2);
  }

  // --- multi-row dots over a query block ---------------------------------------
  // out[q][r] = <row(r), x[q]> for nq queries.  Rows go four at a time, so
  // each load of x feeds four FMAs (the batched form of Algorithm 1).  A
  // block of queries also goes four at a time within each group of four
  // rows, so each loaded row vector feeds four queries: a 4-row x 4-query
  // register tile, the nq % 4 leftover queries taking 4 x 1 tiles.  Every
  // (row, query) dot keeps the one-query arithmetic (one accumulator per row
  // of a four-row group, DotStep::dot for the nrows % 4 leftover rows, the
  // same tail and S::reduce_add), so a query's results do not depend on its
  // block.

  template <class T>
  static T* row_ptr(T* w, std::size_t ld, const std::uint32_t* rows, std::size_t r) {
    return w + (rows != nullptr ? rows[r] : r) * ld;
  }

  // The multiply-accumulate step of the row dots: N elements of a row and
  // of a query into one fp32 accumulator.  By default both operands widen to
  // fp32 and meet in S::fmadd, W elements per step, and a lone row is
  // dot_any.  bf16 x bf16 on a trait with a native pair dot (S::dpbf16)
  // feeds 2W bf16 elements per step, a zero-masked tail included, and a lone
  // row runs that same one-accumulator loop.
  template <class TW, class TX,
            bool Native = std::is_same_v<TW, bf16> && std::is_same_v<TX, bf16> &&
                          requires { typename S::vbh; }>
  struct DotStep {
    static constexpr std::size_t N = W;
    using V = vf;
    template <class T>
    static V load(const T* p) {
      return load_elems(p);
    }
    template <class T>
    static V load_partial(const T* p, std::size_t rem) {
      return load_elems_partial(p, rem);
    }
    static vf madd(vf acc, V w, V x) { return S::fmadd(w, x, acc); }
    static float dot(const TW* row, const TX* x, std::size_t n) { return dot_any(x, row, n); }
  };
  template <class TW, class TX>
  struct DotStep<TW, TX, true> {
    static constexpr std::size_t N = 2 * W;
    using V = typename S::vbh;
    static V load(const bf16* p) { return S::load_bf16_pairs(p); }
    static V load_partial(const bf16* p, std::size_t rem) {
      return S::load_bf16_pairs_partial(p, rem);
    }
    static vf madd(vf acc, V w, V x) { return S::dpbf16(acc, w, x); }
    static float dot(const bf16* row, const bf16* x, std::size_t n) {
      vf acc = S::zero();
      std::size_t i = 0;
      for (; i + N <= n; i += N) acc = madd(acc, load(row + i), load(x + i));
      if (i < n) acc = madd(acc, load_partial(row + i, n - i), load_partial(x + i, n - i));
      return S::reduce_add(acc);
    }
  };

  // One query: the four-row loop.  Kept out of line: inlined beside the
  // block path, it lost the row pointers' registers and ran up to 20% slower
  // on cache-resident rows.  At W == 1 with fp32 inputs the compiler packs a
  // four-row group's sums into one SSE register and adds into it serially,
  // 24-36% slower than the pairs it builds for two rows, so that case goes
  // two rows per pass (each row's sum keeps its order).  bf16 inputs keep
  // four rows, so each widened x element serves four rows.
  template <class TW, class TX>
  [[gnu::noinline]] static void dot_rows_one(const TW* w, std::size_t ld,
                                             const std::uint32_t* rows, std::size_t nrows,
                                             const TX* x, std::size_t n, float* out) {
    using St = DotStep<TW, TX>;
    std::size_t r = 0;
    if constexpr (W == 1 && std::is_same_v<TX, float>) {
      for (; r + 2 <= nrows; r += 2) {
        const TW* w0 = row_ptr(w, ld, rows, r + 0);
        const TW* w1 = row_ptr(w, ld, rows, r + 1);
        vf a0 = S::zero(), a1 = S::zero();
        for (std::size_t i = 0; i < n; ++i) {
          a0 = S::fmadd(load_elems(w0 + i), x[i], a0);
          a1 = S::fmadd(load_elems(w1 + i), x[i], a1);
        }
        out[r + 0] = a0;
        out[r + 1] = a1;
      }
    }
    for (; r + 4 <= nrows; r += 4) {
      const TW* w0 = row_ptr(w, ld, rows, r + 0);
      const TW* w1 = row_ptr(w, ld, rows, r + 1);
      const TW* w2 = row_ptr(w, ld, rows, r + 2);
      const TW* w3 = row_ptr(w, ld, rows, r + 3);
      vf a0 = S::zero(), a1 = S::zero(), a2 = S::zero(), a3 = S::zero();
      std::size_t i = 0;
      for (; i + St::N <= n; i += St::N) {
        const auto xv = St::load(x + i);  // loaded (and widened) once, used 4x
        a0 = St::madd(a0, St::load(w0 + i), xv);
        a1 = St::madd(a1, St::load(w1 + i), xv);
        a2 = St::madd(a2, St::load(w2 + i), xv);
        a3 = St::madd(a3, St::load(w3 + i), xv);
      }
      if (i < n) {
        const std::size_t rem = n - i;
        const auto xv = St::load_partial(x + i, rem);
        a0 = St::madd(a0, St::load_partial(w0 + i, rem), xv);
        a1 = St::madd(a1, St::load_partial(w1 + i, rem), xv);
        a2 = St::madd(a2, St::load_partial(w2 + i, rem), xv);
        a3 = St::madd(a3, St::load_partial(w3 + i, rem), xv);
      }
      out[r + 0] = S::reduce_add(a0);
      out[r + 1] = S::reduce_add(a1);
      out[r + 2] = S::reduce_add(a2);
      out[r + 3] = S::reduce_add(a3);
    }
    for (; r < nrows; ++r) out[r] = St::dot(row_ptr(w, ld, rows, r), x, n);
  }

  // Four queries per tile on every vector tier.  AVX2's 16 registers cannot
  // hold the tile's 21 live vectors, yet over a 13401 x 128 arena the
  // spilling tile still beats one query at a time on every kernel (fp32:
  // 247 -> 73 us per query at nq = 16) and a 4 x 2 tile is no faster.  The
  // scalar tier runs a block query by query: its tiles ran fp32 blocks
  // slower than single queries.
  static constexpr std::size_t kQueryTile = 4;

  // Rows w[0..3] (row r..r+3 of the call) against queries x[0..Q).  A full
  // tile's sixteen sums reduce together where the trait has reduce_add_4x4
  // (AVX-512), each with S::reduce_add's bits.
  template <std::size_t Q, class TW, class TX>
  [[gnu::always_inline]] static void dot_rows_tile(const TW* const* w, const TX* const* x,
                                                   std::size_t n, float* const* out,
                                                   std::size_t r) {
    using St = DotStep<TW, TX>;
    vf a[4][Q];
    for (auto& row : a) {
      for (vf& acc : row) acc = S::zero();
    }
    // Each x vector is loaded (and widened) once and used 4x, each row
    // vector once and used Q times.
    typename St::V xv[Q];
    std::size_t i = 0;
    for (; i + St::N <= n; i += St::N) {
      for (std::size_t q = 0; q < Q; ++q) xv[q] = St::load(x[q] + i);
      for (std::size_t k = 0; k < 4; ++k) {
        const auto wv = St::load(w[k] + i);
        for (std::size_t q = 0; q < Q; ++q) a[k][q] = St::madd(a[k][q], wv, xv[q]);
      }
    }
    if (i < n) {
      const std::size_t rem = n - i;
      for (std::size_t q = 0; q < Q; ++q) xv[q] = St::load_partial(x[q] + i, rem);
      for (std::size_t k = 0; k < 4; ++k) {
        const auto wv = St::load_partial(w[k] + i, rem);
        for (std::size_t q = 0; q < Q; ++q) a[k][q] = St::madd(a[k][q], wv, xv[q]);
      }
    }
    if constexpr (Q == 4 && requires { &S::reduce_add_4x4; }) {
      S::reduce_add_4x4(a, out, r);
    } else {
      for (std::size_t q = 0; q < Q; ++q) {
        for (std::size_t k = 0; k < 4; ++k) out[q][r + k] = S::reduce_add(a[k][q]);
      }
    }
  }

  template <class TW, class TX>
  static void dot_rows_any(const TW* w, std::size_t ld, const std::uint32_t* rows,
                           std::size_t nrows, const TX* const* x, std::size_t nq,
                           std::size_t n, float* const* out) {
    if (W == 1 || nq == 1) {
      for (std::size_t q = 0; q < nq; ++q) dot_rows_one(w, ld, rows, nrows, x[q], n, out[q]);
      return;
    }
    std::size_t r = 0;
    for (; r + 4 <= nrows; r += 4) {
      const TW* w4[4] = {row_ptr(w, ld, rows, r), row_ptr(w, ld, rows, r + 1),
                         row_ptr(w, ld, rows, r + 2), row_ptr(w, ld, rows, r + 3)};
      std::size_t q = 0;
      for (; q + kQueryTile <= nq; q += kQueryTile) {
        dot_rows_tile<kQueryTile>(w4, x + q, n, out + q, r);
      }
      for (; q < nq; ++q) dot_rows_tile<1>(w4, x + q, n, out + q, r);
    }
    for (; r < nrows; ++r) {
      const TW* row = row_ptr(w, ld, rows, r);
      for (std::size_t q = 0; q < nq; ++q) out[q][r] = DotStep<TW, TX>::dot(row, x[q], n);
    }
  }

  static void dot_rows_f32(const float* w, std::size_t ld, const std::uint32_t* rows,
                           std::size_t nrows, const float* const* x, std::size_t nq,
                           std::size_t n, float* const* out) {
    dot_rows_any(w, ld, rows, nrows, x, nq, n, out);
  }
  static void dot_rows_wf32_xbf16(const float* w, std::size_t ld, const std::uint32_t* rows,
                                  std::size_t nrows, const bf16* const* x, std::size_t nq,
                                  std::size_t n, float* const* out) {
    dot_rows_any(w, ld, rows, nrows, x, nq, n, out);
  }
  static void dot_rows_wbf16_xbf16(const bf16* w, std::size_t ld, const std::uint32_t* rows,
                                   std::size_t nrows, const bf16* const* x, std::size_t nq,
                                   std::size_t n, float* const* out) {
    dot_rows_any(w, ld, rows, nrows, x, nq, n, out);
  }

  // --- fused backward over active rows ----------------------------------------
  // Both halves of a neuron-major layer's backward in one sweep: the weight
  // gradient gw[row] += g*x and the propagation xgrad += g*w[row].  The x and
  // xgrad tiles of four vectors stay in registers for the whole row sweep, so
  // xgrad is loaded and stored once per tile instead of once per row.  Each
  // element gets the FMAs of the two per-row axpy calls, with the same
  // operands in the same row order, so the result equals that loop bit for
  // bit.  W == 1 sweeps each row at full width instead (tiling only adds
  // passes over the row list there).

  template <class TW>
  static void backward_rows_any(const TW* w, float* gw, std::size_t ld,
                                const std::uint32_t* rows, const float* g, std::size_t nrows,
                                const float* x, float* xgrad, std::size_t n) {
    if constexpr (W == 1) {
      for (std::size_t r = 0; r < nrows; ++r) {
        if (g[r] == 0.0f) continue;
        axpy_any(g[r], x, row_ptr(gw, ld, rows, r), n);
        axpy_any(g[r], row_ptr(w, ld, rows, r), xgrad, n);
      }
    } else {
      std::size_t j = 0;
      for (; j + 4 * W <= n; j += 4 * W) {
        const vf x0 = S::loadu(x + j), x1 = S::loadu(x + j + W);
        const vf x2 = S::loadu(x + j + 2 * W), x3 = S::loadu(x + j + 3 * W);
        vf a0 = S::loadu(xgrad + j), a1 = S::loadu(xgrad + j + W);
        vf a2 = S::loadu(xgrad + j + 2 * W), a3 = S::loadu(xgrad + j + 3 * W);
        for (std::size_t r = 0; r < nrows; ++r) {
          if (g[r] == 0.0f) continue;
          const vf gv = S::set1(g[r]);
          float* gr = row_ptr(gw, ld, rows, r) + j;
          S::storeu(gr, S::fmadd(gv, x0, S::loadu(gr)));
          S::storeu(gr + W, S::fmadd(gv, x1, S::loadu(gr + W)));
          S::storeu(gr + 2 * W, S::fmadd(gv, x2, S::loadu(gr + 2 * W)));
          S::storeu(gr + 3 * W, S::fmadd(gv, x3, S::loadu(gr + 3 * W)));
          const TW* wr = row_ptr(w, ld, rows, r) + j;
          a0 = S::fmadd(gv, load_elems(wr), a0);
          a1 = S::fmadd(gv, load_elems(wr + W), a1);
          a2 = S::fmadd(gv, load_elems(wr + 2 * W), a2);
          a3 = S::fmadd(gv, load_elems(wr + 3 * W), a3);
        }
        S::storeu(xgrad + j, a0);
        S::storeu(xgrad + j + W, a1);
        S::storeu(xgrad + j + 2 * W, a2);
        S::storeu(xgrad + j + 3 * W, a3);
      }
      for (; j < n; j += W) {
        const std::size_t rem = n - j < W ? n - j : W;
        const vf xv = S::load_partial(x + j, rem);
        vf a = S::load_partial(xgrad + j, rem);
        for (std::size_t r = 0; r < nrows; ++r) {
          if (g[r] == 0.0f) continue;
          const vf gv = S::set1(g[r]);
          float* gr = row_ptr(gw, ld, rows, r) + j;
          S::store_partial(gr, rem, S::fmadd(gv, xv, S::load_partial(gr, rem)));
          a = S::fmadd(gv, load_elems_partial(row_ptr(w, ld, rows, r) + j, rem), a);
        }
        S::store_partial(xgrad + j, rem, a);
      }
    }
  }

  static void backward_rows_f32(const float* w, float* gw, std::size_t ld,
                                const std::uint32_t* rows, const float* g, std::size_t nrows,
                                const float* x, float* xgrad, std::size_t n) {
    backward_rows_any(w, gw, ld, rows, g, nrows, x, xgrad, n);
  }
  static void backward_rows_bf16(const bf16* w, float* gw, std::size_t ld,
                                 const std::uint32_t* rows, const float* g, std::size_t nrows,
                                 const float* x, float* xgrad, std::size_t n) {
    backward_rows_any(w, gw, ld, rows, g, nrows, x, xgrad, n);
  }

  // --- gather / DWTA support --------------------------------------------------

  static void gather_f32(float* dst, const float* src, const std::uint32_t* idx,
                         std::size_t n) {
    std::size_t k = 0;
    for (; k + W <= n; k += W) S::storeu(dst + k, S::gather(src, S::load_idx(idx + k)));
    if (k < n) {
      const std::size_t rem = n - k;
      S::store_partial(dst + k, rem, S::gather_partial(src, idx + k, rem));
    }
  }

  static void gather_scatter_f32(float* dst, const std::uint32_t* dst_idx, const float* src,
                                 const std::uint32_t* src_idx, std::size_t n) {
    std::size_t k = 0;
    for (; k + W <= n; k += W) {
      S::scatter(dst, S::load_idx(dst_idx + k), S::gather(src, S::load_idx(src_idx + k)));
    }
    for (; k < n; ++k) dst[dst_idx[k]] = src[src_idx[k]];
  }

  // Reference bin-argmax; the AVX backends override this with in-register
  // winner extraction (the one table entry where the ISAs truly diverge).
  static void wta_winners_f32(const float* values, std::size_t num_bins,
                              std::uint8_t* winners) {
    for (std::size_t b = 0; b < num_bins; ++b) {
      const float* bin = values + 8 * b;
      std::uint8_t best = 0;
      for (std::uint8_t s = 1; s < 8; ++s) {
        if (bin[s] > bin[best]) best = s;
      }
      winners[b] = best;
    }
  }

  // --- int8 quantized kernels -------------------------------------------------
  // u8 activations x s8 weights, i32 accumulation — integer math doesn't
  // reassociate, so vector backends are bit-exact against the W == 1 loops
  // as long as the u8 operands respect quantize_u8's 7-bit ceiling (which
  // keeps the vpmaddubsw i16 pair sums, <= 2*127*127, from saturating).
  // Each vector step consumes 4*W bytes: one byte vector holds W i32 lanes'
  // worth of quads for S::dpbusd.

  static std::int32_t dot_u8s8(const std::uint8_t* a, const std::int8_t* b, std::size_t n) {
    if constexpr (W == 1) {
      std::int32_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
      }
      return acc;
    } else {
      constexpr std::size_t B = 4 * W;
      vi acc0 = S::zero_i32();
      vi acc1 = S::zero_i32();
      std::size_t i = 0;
      for (; i + 2 * B <= n; i += 2 * B) {
        acc0 = S::dpbusd(acc0, S::load_b(a + i), S::load_b(b + i));
        acc1 = S::dpbusd(acc1, S::load_b(a + i + B), S::load_b(b + i + B));
      }
      for (; i + B <= n; i += B) {
        acc0 = S::dpbusd(acc0, S::load_b(a + i), S::load_b(b + i));
      }
      std::int32_t total = S::reduce_add_i32(acc0) + S::reduce_add_i32(acc1);
      for (; i < n; ++i) {
        total += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
      }
      return total;
    }
  }

  static void sparse_dot_u8s8(const std::uint32_t* idx, const std::uint8_t* val,
                              std::size_t nnz, const std::int8_t* w, std::int32_t* dot,
                              std::int32_t* wsum) {
    if constexpr (W == 1) {
      std::int32_t d = 0;
      std::int32_t ws = 0;
      for (std::size_t k = 0; k < nnz; ++k) {
        const std::int32_t wk = w[idx[k]];
        d += static_cast<std::int32_t>(val[k]) * wk;
        ws += wk;
      }
      *dot = d;
      *wsum = ws;
    } else {
      // Bytes can't be hardware-gathered; stage the indexed weights and keep
      // both accumulations (dot, and the zero-point correction's weight sum
      // via an all-ones "activation") vectorized.
      constexpr std::size_t B = 4 * W;
      alignas(64) std::int8_t staged[B];
      const auto ones = S::set1_b(1);
      vi dacc = S::zero_i32();
      vi wacc = S::zero_i32();
      std::size_t k = 0;
      for (; k + B <= nnz; k += B) {
        for (std::size_t j = 0; j < B; ++j) staged[j] = w[idx[k + j]];
        const auto wb = S::load_b(staged);
        dacc = S::dpbusd(dacc, S::load_b(val + k), wb);
        wacc = S::dpbusd(wacc, ones, wb);
      }
      std::int32_t d = S::reduce_add_i32(dacc);
      std::int32_t ws = S::reduce_add_i32(wacc);
      for (; k < nnz; ++k) {
        const std::int32_t wk = w[idx[k]];
        d += static_cast<std::int32_t>(val[k]) * wk;
        ws += wk;
      }
      *dot = d;
      *wsum = ws;
    }
  }

  // dot_rows_one in integers: whole byte vectors, then the scalar tail.
  [[gnu::noinline]] static void dot_rows_u8s8_one(const std::int8_t* w, std::size_t ld,
                                                  const std::uint32_t* rows, std::size_t nrows,
                                                  const std::uint8_t* x, std::size_t n,
                                                  std::int32_t* out) {
    if constexpr (W == 1) {
      for (std::size_t r = 0; r < nrows; ++r) out[r] = dot_u8s8(x, row_ptr(w, ld, rows, r), n);
    } else {
      constexpr std::size_t B = 4 * W;
      std::size_t r = 0;
      for (; r + 4 <= nrows; r += 4) {
        const std::int8_t* w0 = row_ptr(w, ld, rows, r + 0);
        const std::int8_t* w1 = row_ptr(w, ld, rows, r + 1);
        const std::int8_t* w2 = row_ptr(w, ld, rows, r + 2);
        const std::int8_t* w3 = row_ptr(w, ld, rows, r + 3);
        vi a0 = S::zero_i32(), a1 = S::zero_i32(), a2 = S::zero_i32(), a3 = S::zero_i32();
        std::size_t i = 0;
        for (; i + B <= n; i += B) {
          const auto xv = S::load_b(x + i);  // loaded once, feeds 4 dot steps
          a0 = S::dpbusd(a0, xv, S::load_b(w0 + i));
          a1 = S::dpbusd(a1, xv, S::load_b(w1 + i));
          a2 = S::dpbusd(a2, xv, S::load_b(w2 + i));
          a3 = S::dpbusd(a3, xv, S::load_b(w3 + i));
        }
        std::int32_t t0 = S::reduce_add_i32(a0);
        std::int32_t t1 = S::reduce_add_i32(a1);
        std::int32_t t2 = S::reduce_add_i32(a2);
        std::int32_t t3 = S::reduce_add_i32(a3);
        for (; i < n; ++i) {
          const std::int32_t xi = x[i];
          t0 += xi * w0[i];
          t1 += xi * w1[i];
          t2 += xi * w2[i];
          t3 += xi * w3[i];
        }
        out[r + 0] = t0;
        out[r + 1] = t1;
        out[r + 2] = t2;
        out[r + 3] = t3;
      }
      for (; r < nrows; ++r) out[r] = dot_u8s8(x, row_ptr(w, ld, rows, r), n);
    }
  }

  // dot_rows_tile in integers: rows w[0..3] against queries x[0..Q), whole
  // byte vectors first, then the scalar tail.
  template <std::size_t Q>
  [[gnu::always_inline]] static void dot_rows_u8s8_tile(const std::int8_t* const* w,
                                                        const std::uint8_t* const* x,
                                                        std::size_t n, std::int32_t* const* out,
                                                        std::size_t r) {
    constexpr std::size_t B = 4 * W;
    vi a[4][Q];
    for (auto& row : a) {
      for (vi& acc : row) acc = S::zero_i32();
    }
    typename S::vb xv[Q];
    std::size_t i = 0;
    for (; i + B <= n; i += B) {
      for (std::size_t q = 0; q < Q; ++q) xv[q] = S::load_b(x[q] + i);
      for (std::size_t k = 0; k < 4; ++k) {
        const auto wv = S::load_b(w[k] + i);
        for (std::size_t q = 0; q < Q; ++q) a[k][q] = S::dpbusd(a[k][q], xv[q], wv);
      }
    }
    std::int32_t t[4][Q];
    for (std::size_t q = 0; q < Q; ++q) {
      for (std::size_t k = 0; k < 4; ++k) t[k][q] = S::reduce_add_i32(a[k][q]);
    }
    for (; i < n; ++i) {
      for (std::size_t q = 0; q < Q; ++q) {
        const std::int32_t xi = x[q][i];
        for (std::size_t k = 0; k < 4; ++k) t[k][q] += xi * w[k][i];
      }
    }
    for (std::size_t q = 0; q < Q; ++q) {
      for (std::size_t k = 0; k < 4; ++k) out[q][r + k] = t[k][q];
    }
  }

  static void dot_rows_u8s8(const std::int8_t* w, std::size_t ld, const std::uint32_t* rows,
                            std::size_t nrows, const std::uint8_t* const* x, std::size_t nq,
                            std::size_t n, std::int32_t* const* out) {
    if (nq == 1) return dot_rows_u8s8_one(w, ld, rows, nrows, x[0], n, out[0]);
    std::size_t r = 0;
    if constexpr (W > 1) {
      for (; r + 4 <= nrows; r += 4) {
        const std::int8_t* w4[4] = {row_ptr(w, ld, rows, r), row_ptr(w, ld, rows, r + 1),
                                    row_ptr(w, ld, rows, r + 2), row_ptr(w, ld, rows, r + 3)};
        std::size_t q = 0;
        for (; q + kQueryTile <= nq; q += kQueryTile) {
          dot_rows_u8s8_tile<kQueryTile>(w4, x + q, n, out + q, r);
        }
        for (; q < nq; ++q) dot_rows_u8s8_tile<1>(w4, x + q, n, out + q, r);
      }
    }
    // Leftover rows (every row at W == 1) one dot at a time.
    for (; r < nrows; ++r) {
      const std::int8_t* row = row_ptr(w, ld, rows, r);
      for (std::size_t q = 0; q < nq; ++q) out[q][r] = dot_u8s8(x[q], row, n);
    }
  }

  static void sparse_axpy_rows_u8s8(const std::uint32_t* idx, const std::uint8_t* val,
                                    std::size_t nnz, const std::int8_t* w, std::size_t ld,
                                    std::int32_t* dot, std::int32_t* wsum, std::size_t n) {
    std::size_t j = 0;
    if constexpr (W > 1) {
      // Two-vector column tiles in registers: sign-extend W weights to i32,
      // multiply by the broadcast activation byte, add.
      for (; j + 2 * W <= n; j += 2 * W) {
        vi d0 = S::zero_i32(), d1 = S::zero_i32(), s0 = S::zero_i32(), s1 = S::zero_i32();
        for (std::size_t k = 0; k < nnz; ++k) {
          const std::int8_t* row = w + std::size_t{idx[k]} * ld + j;
          const vi xv = S::set1_i(val[k]);
          const vi w0 = S::load_s8_i32(row);
          const vi w1 = S::load_s8_i32(row + W);
          d0 = S::add_i(d0, S::mullo_i32(w0, xv));
          d1 = S::add_i(d1, S::mullo_i32(w1, xv));
          s0 = S::add_i(s0, w0);
          s1 = S::add_i(s1, w1);
        }
        S::storeu_i32(dot + j, d0);
        S::storeu_i32(dot + j + W, d1);
        S::storeu_i32(wsum + j, s0);
        S::storeu_i32(wsum + j + W, s1);
      }
    }
    // The remaining columns (all of them at W == 1) row by row; integer sums
    // don't depend on the order.
    if (j == n) return;
    for (std::size_t c = j; c < n; ++c) dot[c] = wsum[c] = 0;
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::int32_t x = val[k];
      const std::int8_t* row = w + std::size_t{idx[k]} * ld;
      for (std::size_t c = j; c < n; ++c) {
        dot[c] += x * row[c];
        wsum[c] += row[c];
      }
    }
  }

  static std::uint8_t quantize_one_u8(float x, float inv_scale, std::int32_t zero_point) {
    float q = std::nearbyint(x * inv_scale) + static_cast<float>(zero_point);
    q = q < 0.0f ? 0.0f : (q > 127.0f ? 127.0f : q);
    return static_cast<std::uint8_t>(q);
  }

  // Clamps to [0, 127] rather than [0, 255]: see the saturation note above.
  static void quantize_u8(const float* src, std::uint8_t* dst, std::size_t n,
                          float inv_scale, std::int32_t zero_point) {
    if constexpr (W == 1) {
      for (std::size_t i = 0; i < n; ++i) dst[i] = quantize_one_u8(src[i], inv_scale, zero_point);
    } else {
      const vf vs = S::set1(inv_scale);
      const vf vzp = S::set1(static_cast<float>(zero_point));
      const vf lo = S::zero();
      const vf hi = S::set1(127.0f);
      alignas(64) std::uint32_t lanes[W];
      std::size_t i = 0;
      for (; i + W <= n; i += W) {
        vf q = S::add(S::round_nearest(S::mul(S::loadu(src + i), vs)), vzp);
        q = S::min(S::max(q, lo), hi);
        S::store_arr_i(lanes, S::cvt_f2i(q));
        for (std::size_t j = 0; j < W; ++j) dst[i + j] = static_cast<std::uint8_t>(lanes[j]);
      }
      for (; i < n; ++i) dst[i] = quantize_one_u8(src[i], inv_scale, zero_point);
    }
  }

  static void dequantize_u8(const std::uint8_t* src, float* dst, std::size_t n, float scale,
                            std::int32_t zero_point) {
    // One fp32 multiply per element on exactly-representable integers: the
    // same scalar loop is bit-exact at every width, so no vector path.
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = scale * static_cast<float>(static_cast<std::int32_t>(src[i]) - zero_point);
    }
  }
};

// Builds the full dispatch table for one trait; backend TUs may patch
// individual entries before publishing it.
template <class S>
constexpr KernelTable make_kernel_table(const char* name) {
  using G = GenericKernels<S>;
  KernelTable t{};
  t.dot_f32 = &G::dot_f32;
  t.dot_bf16_f32 = &G::dot_bf16_f32;
  t.dot_bf16_bf16 = &G::dot_bf16_bf16;
  t.sparse_dot_f32 = &G::sparse_dot_f32;
  t.sparse_dot_bf16 = &G::sparse_dot_bf16;
  t.axpy_f32 = &G::axpy_f32;
  t.axpy_bf16 = &G::axpy_bf16;
  t.scatter_axpy_f32 = &G::scatter_axpy_f32;
  t.sparse_axpy_rows_f32 = &G::sparse_axpy_rows_f32;
  t.sparse_axpy_rows_bf16 = &G::sparse_axpy_rows_bf16;
  t.scale_f32 = &G::scale_f32;
  t.fill_f32 = &G::fill_f32;
  t.relu_f32 = &G::relu_f32;
  t.reduce_sum_f32 = &G::reduce_sum_f32;
  t.reduce_max_f32 = &G::reduce_max_f32;
  t.first_above_f32 = &G::first_above_f32;
  t.softmax_f32 = &G::softmax_f32;
  t.fp32_to_bf16 = &G::fp32_to_bf16;
  t.bf16_to_fp32 = &G::bf16_to_fp32;
  t.adam_step_f32 = &G::adam_step_f32;
  t.adam_step_bf16 = &G::adam_step_bf16;
  t.dot_rows_f32 = &G::dot_rows_f32;
  t.dot_rows_wf32_xbf16 = &G::dot_rows_wf32_xbf16;
  t.dot_rows_wbf16_xbf16 = &G::dot_rows_wbf16_xbf16;
  t.backward_rows_f32 = &G::backward_rows_f32;
  t.backward_rows_bf16 = &G::backward_rows_bf16;
  t.gather_f32 = &G::gather_f32;
  t.gather_scatter_f32 = &G::gather_scatter_f32;
  t.wta_winners_f32 = &G::wta_winners_f32;
  t.dot_u8s8 = &G::dot_u8s8;
  t.sparse_dot_u8s8 = &G::sparse_dot_u8s8;
  t.dot_rows_u8s8 = &G::dot_rows_u8s8;
  t.sparse_axpy_rows_u8s8 = &G::sparse_axpy_rows_u8s8;
  t.quantize_u8 = &G::quantize_u8;
  t.dequantize_u8 = &G::dequantize_u8;
  t.name = name;
  return t;
}

}  // namespace slide::kernels
