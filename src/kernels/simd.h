// Width-generic SIMD primitive layer.
//
// Each backend translation unit instantiates the shared kernel templates in
// kernels_generic.h against one of the trait structs below.  A trait bundles
// the vector types and the ~30 primitive operations (load/store/fma/gather/
// reduce/mask/bf16) the generic kernels need, so lane width is the *only*
// thing that differs between backends wherever the ISAs don't genuinely
// diverge.  Three instantiations exist today:
//
//   SimdScalar   W=1   plain C++ (the reference semantics; no intrinsics)
//   SimdAvx2     W=8   __m256 + FMA + vpgatherdps, vector masks for tails
//   SimdAvx512   W=16  __m512, opmask registers for tails, native scatter
//
// The vector specializations are guarded by the compiler's own ISA macros:
// only the TU compiled with the matching -m flags sees them, so this header
// is safe to include from any TU.  Adding a backend (NEON, AMX tiles over
// fp32...) means writing one more trait here plus a table in its own TU.
//
// Trait contract (S = a trait):
//   S::W                      fp32 lanes per vector
//   S::vf / S::vi / S::vm     float vector / i32 vector / lane-mask types
//   loads/stores              loadu, storeu, load_partial (zero-fills lanes
//                             >= rem), store_partial, partial_mask(rem)
//   arithmetic                add sub mul div sqrt max fmadd(a,b,c)=a*b+c
//                             fnmadd(a,b,c)=c-a*b
//   horizontal                reduce_add, reduce_max
//   compare/blend             cmp_gt -> vm (ordered: false on NaN),
//                             select(m,a,b)=m?a:b, mask_bits(m) (lane j's
//                             flag in bit j)
//   integer lanes             set1_i, add_i, store_arr_i
//   sparse                    load_idx, gather(base,vi), gather_partial,
//                             scatter (indices must be unique per call)
//   bf16                      load_bf16{,_partial} widen to fp32;
//                             store_bf16{,_partial} round-to-nearest-even
//                             with NaN quieting (VCVTNEPS2BF16 semantics)
//   exp                       vectorized expf (scalar: std::exp; vector ISAs:
//                             shared Cephes-style polynomial, ~2 ulp)
//   round_nearest/cvt_f2i/pow2  building blocks for the shared exp polynomial
//   int8 (vector traits only) vb (byte vector, 4*W bytes), load_b, set1_b,
//                             zero_i32, dpbusd(acc,a,b) += per-i32-lane sum of
//                             four u8*s8 products, reduce_add_i32,
//                             load_s8_i32 (W sign-extended bytes), mullo_i32,
//                             storeu_i32.  The scalar
//                             trait omits these: the generic quantized kernels
//                             take a plain-loop branch at W == 1, which is the
//                             parity reference.  vpmaddubsw-based backends
//                             saturate i16 pair sums, so callers must keep u8
//                             operands <= 127 (the quantizer's 7-bit ceiling);
//                             within that contract every backend is bit-exact.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/bf16.h"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace slide::kernels {

// Cephes-style vector expf shared by every vector trait: exp(x) = 2^n * e^r
// with n = round(x*log2e) and a degree-5 minimax polynomial for e^r.  Max
// relative error ~2 ulp, plenty for softmax (validated against std::exp in
// the unit tests).  Declared here, defined after the traits.
template <class S>
typename S::vf simd_exp(typename S::vf x);

// --- scalar (W = 1) ---------------------------------------------------------
// The reference backend *is* the generic layer at width 1: every loop below
// degenerates to the plain in-order C++ the paper's "AVX flag off" arm ran.

struct SimdScalar {
  static constexpr std::size_t W = 1;
  using vf = float;
  using vi = std::int32_t;
  using vm = bool;

  static vf zero() { return 0.0f; }
  static vf set1(float x) { return x; }
  static vf loadu(const float* p) { return *p; }
  static vf load_partial(const float* p, std::size_t) { return *p; }
  static void storeu(float* p, vf v) { *p = v; }
  static void store_partial(float* p, std::size_t, vf v) { *p = v; }
  static vm partial_mask(std::size_t) { return true; }

  static vf add(vf a, vf b) { return a + b; }
  static vf sub(vf a, vf b) { return a - b; }
  static vf mul(vf a, vf b) { return a * b; }
  static vf div(vf a, vf b) { return a / b; }
  static vf sqrt(vf a) { return std::sqrt(a); }
  static vf max(vf a, vf b) { return a > b ? a : b; }
  static vf min(vf a, vf b) { return a < b ? a : b; }
  static vf fmadd(vf a, vf b, vf c) { return a * b + c; }
  static vf fnmadd(vf a, vf b, vf c) { return c - a * b; }

  static float reduce_add(vf v) { return v; }
  static float reduce_max(vf v) { return v; }

  static vm cmp_gt(vf a, vf b) { return a > b; }
  static unsigned mask_bits(vm m) { return m ? 1u : 0u; }
  static vf select(vm m, vf a, vf b) { return m ? a : b; }

  static vi set1_i(std::int32_t x) { return x; }
  static vi add_i(vi a, vi b) { return a + b; }
  static void store_arr_i(std::uint32_t* dst, vi v) { dst[0] = static_cast<std::uint32_t>(v); }

  static vi load_idx(const std::uint32_t* idx) { return static_cast<vi>(idx[0]); }
  static vf gather(const float* base, vi idx) {
    return base[static_cast<std::uint32_t>(idx)];
  }
  static vf gather_partial(const float* base, const std::uint32_t* idx, std::size_t) {
    return base[idx[0]];
  }
  static void scatter(float* base, vi idx, vf v) {
    base[static_cast<std::uint32_t>(idx)] = v;
  }

  static vf load_bf16(const bf16* p) { return p->to_float(); }
  static vf load_bf16_partial(const bf16* p, std::size_t) { return p->to_float(); }
  static void store_bf16(bf16* p, vf v) { *p = bf16::from_float(v); }
  static void store_bf16_partial(bf16* p, std::size_t, vf v) { *p = bf16::from_float(v); }

  static vf exp(vf x) { return std::exp(x); }
  static vf round_nearest(vf x) { return std::nearbyint(x); }
  static vi cvt_f2i(vf x) { return static_cast<vi>(std::nearbyint(x)); }
  static vf pow2(vi n) {
    std::uint32_t bits = static_cast<std::uint32_t>(n + 127) << 23;
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  }
};

// --- AVX2 (W = 8) -----------------------------------------------------------
// 8 fp32 lanes per __m256, FMA3 for the multiply-accumulate kernels and
// vpgatherdps for the sparse paths.  AVX2 has no opmask registers, so tails
// use sign-bit vector masks (vmaskmovps) for fp32 and short staging copies
// for the 16-bit bf16 lanes, which have no masked load/store at all.

#if defined(__AVX2__) && defined(__FMA__)

struct SimdAvx2 {
  static constexpr std::size_t W = 8;
  using vf = __m256;
  using vi = __m256i;
  using vm = __m256;  // all-ones lanes mark active elements

  // Sliding window over 8 ones then 8 zeros: kTailTable + 8 - rem yields a
  // mask with the first `rem` lanes active.
  inline static constexpr std::int32_t kTailTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                         0,  0,  0,  0,  0,  0,  0,  0};
  static vi tail_mask_i(std::size_t rem) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kTailTable + 8 - rem));
  }

  static vf zero() { return _mm256_setzero_ps(); }
  static vf set1(float x) { return _mm256_set1_ps(x); }
  static vf loadu(const float* p) { return _mm256_loadu_ps(p); }
  static vf load_partial(const float* p, std::size_t rem) {
    return _mm256_maskload_ps(p, tail_mask_i(rem));
  }
  static void storeu(float* p, vf v) { _mm256_storeu_ps(p, v); }
  static void store_partial(float* p, std::size_t rem, vf v) {
    _mm256_maskstore_ps(p, tail_mask_i(rem), v);
  }
  static vm partial_mask(std::size_t rem) { return _mm256_castsi256_ps(tail_mask_i(rem)); }

  static vf add(vf a, vf b) { return _mm256_add_ps(a, b); }
  static vf sub(vf a, vf b) { return _mm256_sub_ps(a, b); }
  static vf mul(vf a, vf b) { return _mm256_mul_ps(a, b); }
  static vf div(vf a, vf b) { return _mm256_div_ps(a, b); }
  static vf sqrt(vf a) { return _mm256_sqrt_ps(a); }
  static vf max(vf a, vf b) { return _mm256_max_ps(a, b); }
  static vf min(vf a, vf b) { return _mm256_min_ps(a, b); }
  static vf fmadd(vf a, vf b, vf c) { return _mm256_fmadd_ps(a, b, c); }
  static vf fnmadd(vf a, vf b, vf c) { return _mm256_fnmadd_ps(a, b, c); }

  static float reduce_add(vf v) {
    __m128 lo = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
    return _mm_cvtss_f32(lo);
  }
  static float reduce_max(vf v) {
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_movehdup_ps(lo));
    return _mm_cvtss_f32(lo);
  }

  static vm cmp_gt(vf a, vf b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static unsigned mask_bits(vm m) { return static_cast<unsigned>(_mm256_movemask_ps(m)); }
  static vf select(vm m, vf a, vf b) { return _mm256_blendv_ps(b, a, m); }

  static vi set1_i(std::int32_t x) { return _mm256_set1_epi32(x); }
  static vi add_i(vi a, vi b) { return _mm256_add_epi32(a, b); }
  static void store_arr_i(std::uint32_t* dst, vi v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }

  static vi load_idx(const std::uint32_t* idx) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  }
  static vf gather(const float* base, vi idx) {
    return _mm256_i32gather_ps(base, idx, 4);
  }
  static vf gather_partial(const float* base, const std::uint32_t* idx, std::size_t rem) {
    const vi m = tail_mask_i(rem);
    const vi vidx = _mm256_maskload_epi32(reinterpret_cast<const int*>(idx), m);
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, vidx,
                                    _mm256_castsi256_ps(m), 4);
  }
  // No scatter instruction before AVX-512: spill the lanes and store one by
  // one (indices are unique per call, so ordering doesn't matter).
  static void scatter(float* base, vi idx, vf v) {
    alignas(32) float val[8];
    alignas(32) std::uint32_t where[8];
    _mm256_store_ps(val, v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(where), idx);
    for (int j = 0; j < 8; ++j) base[where[j]] = val[j];
  }

  static vf widen_bf16(__m128i raw) {
    return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16));
  }
  static vf load_bf16(const bf16* p) {
    return widen_bf16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static vf load_bf16_partial(const bf16* p, std::size_t rem) {
    alignas(16) std::uint16_t buf[8] = {};
    std::memcpy(buf, p, rem * sizeof(bf16));
    return widen_bf16(_mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
  }
  static __m128i to_bf16_bits(vf v) {
    const __m256i u = _mm256_castps_si256(v);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i bias = _mm256_add_epi32(_mm256_set1_epi32(0x7FFF),
                                          _mm256_and_si256(_mm256_srli_epi32(u, 16), one));
    __m256i r = _mm256_srli_epi32(_mm256_add_epi32(u, bias), 16);
    // Quiet NaNs instead of rounding them toward infinity.
    const __m256 nan = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    const __m256i qnan = _mm256_or_si256(_mm256_srli_epi32(u, 16), _mm256_set1_epi32(0x0040));
    r = _mm256_blendv_epi8(r, qnan, _mm256_castps_si256(nan));
    // Narrow the 8 u16-in-u32 lanes to u16: packus works per 128-bit half, so
    // re-interleave the quadwords afterwards.
    const __m256i packed = _mm256_packus_epi32(r, r);
    return _mm256_castsi256_si128(_mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0)));
  }
  static void store_bf16(bf16* p, vf v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), to_bf16_bits(v));
  }
  static void store_bf16_partial(bf16* p, std::size_t rem, vf v) {
    alignas(16) std::uint16_t buf[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), to_bf16_bits(v));
    std::memcpy(p, buf, rem * sizeof(bf16));
  }

  static vf exp(vf x) { return simd_exp<SimdAvx2>(x); }
  static vf round_nearest(vf x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static vi cvt_f2i(vf x) { return _mm256_cvtps_epi32(x); }
  static vf pow2(vi n) {
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  }

  // int8 dot support: 32 bytes (4 per i32 lane) per step.  vpmaddubsw forms
  // u8*s8 pair sums in i16 (saturating — safe under the 7-bit activation
  // contract), vpmaddwd folds them into the 8 i32 lanes.
  using vb = __m256i;
  static vb load_b(const void* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static vb set1_b(char x) { return _mm256_set1_epi8(x); }
  static vi zero_i32() { return _mm256_setzero_si256(); }
  static vi dpbusd(vi acc, vb a, vb b) {
    const __m256i pair16 = _mm256_maddubs_epi16(a, b);
    const __m256i quad32 = _mm256_madd_epi16(pair16, _mm256_set1_epi16(1));
    return _mm256_add_epi32(acc, quad32);
  }
  static std::int32_t reduce_add_i32(vi v) {
    __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
    lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(lo);
  }
  static vi load_s8_i32(const std::int8_t* p) {
    return _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static vi mullo_i32(vi a, vi b) { return _mm256_mullo_epi32(a, b); }
  static void storeu_i32(std::int32_t* p, vi v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

#endif  // __AVX2__ && __FMA__

// --- AVX-512 (W = 16) -------------------------------------------------------
// 16 fp32 lanes per __m512 with opmask registers, so tails are masked loads
// and stores rather than staging copies, and the sparse paths get a native
// scatter.  bf16 rides in __m256i halves (16 x u16) exactly as in the
// original hand-written backend.

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

struct SimdAvx512 {
  static constexpr std::size_t W = 16;
  using vf = __m512;
  using vi = __m512i;
  using vm = __mmask16;

  static vm tail_mask16(std::size_t rem) {
    return static_cast<__mmask16>((1u << rem) - 1u);
  }

  static vf zero() { return _mm512_setzero_ps(); }
  static vf set1(float x) { return _mm512_set1_ps(x); }
  static vf loadu(const float* p) { return _mm512_loadu_ps(p); }
  static vf load_partial(const float* p, std::size_t rem) {
    return _mm512_maskz_loadu_ps(tail_mask16(rem), p);
  }
  static void storeu(float* p, vf v) { _mm512_storeu_ps(p, v); }
  static void store_partial(float* p, std::size_t rem, vf v) {
    _mm512_mask_storeu_ps(p, tail_mask16(rem), v);
  }
  static vm partial_mask(std::size_t rem) { return tail_mask16(rem); }

  static vf add(vf a, vf b) { return _mm512_add_ps(a, b); }
  static vf sub(vf a, vf b) { return _mm512_sub_ps(a, b); }
  static vf mul(vf a, vf b) { return _mm512_mul_ps(a, b); }
  static vf div(vf a, vf b) { return _mm512_div_ps(a, b); }
  static vf sqrt(vf a) { return _mm512_sqrt_ps(a); }
  static vf max(vf a, vf b) { return _mm512_max_ps(a, b); }
  static vf min(vf a, vf b) { return _mm512_min_ps(a, b); }
  static vf fmadd(vf a, vf b, vf c) { return _mm512_fmadd_ps(a, b, c); }
  static vf fnmadd(vf a, vf b, vf c) { return _mm512_fnmadd_ps(a, b, c); }

  static float reduce_add(vf v) { return _mm512_reduce_add_ps(v); }
  static float reduce_max(vf v) { return _mm512_reduce_max_ps(v); }

  static vm cmp_gt(vf a, vf b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static unsigned mask_bits(vm m) { return m; }
  static vf select(vm m, vf a, vf b) { return _mm512_mask_blend_ps(m, b, a); }

  static vi set1_i(std::int32_t x) { return _mm512_set1_epi32(x); }
  static vi add_i(vi a, vi b) { return _mm512_add_epi32(a, b); }
  static void store_arr_i(std::uint32_t* dst, vi v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(dst), v);
  }

  static vi load_idx(const std::uint32_t* idx) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(idx));
  }
  static vf gather(const float* base, vi idx) { return _mm512_i32gather_ps(idx, base, 4); }
  static vf gather_partial(const float* base, const std::uint32_t* idx, std::size_t rem) {
    const vm m = tail_mask16(rem);
    const vi vidx = _mm512_maskz_loadu_epi32(m, idx);
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, vidx, base, 4);
  }
  static void scatter(float* base, vi idx, vf v) { _mm512_i32scatter_ps(base, idx, v, 4); }

  static vf widen_bf16(__m256i raw) {
    return _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
  }
  static vf load_bf16(const bf16* p) {
    return widen_bf16(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static vf load_bf16_partial(const bf16* p, std::size_t rem) {
    return widen_bf16(_mm256_maskz_loadu_epi16(tail_mask16(rem), p));
  }
  static __m256i to_bf16_bits(vf v) {
    const __m512i u = _mm512_castps_si512(v);
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i bias = _mm512_add_epi32(_mm512_set1_epi32(0x7FFF),
                                          _mm512_and_si512(_mm512_srli_epi32(u, 16), one));
    __m512i r = _mm512_srli_epi32(_mm512_add_epi32(u, bias), 16);
    // Quiet NaNs instead of rounding them toward infinity.
    const __mmask16 nan = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    const __m512i qnan = _mm512_or_si512(_mm512_srli_epi32(u, 16), _mm512_set1_epi32(0x0040));
    r = _mm512_mask_mov_epi32(r, nan, qnan);
    return _mm512_cvtepi32_epi16(r);
  }
  static void store_bf16(bf16* p, vf v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), to_bf16_bits(v));
  }
  static void store_bf16_partial(bf16* p, std::size_t rem, vf v) {
    _mm256_mask_storeu_epi16(p, tail_mask16(rem), to_bf16_bits(v));
  }

  static vf exp(vf x) { return simd_exp<SimdAvx512>(x); }
  static vf round_nearest(vf x) {
    return _mm512_roundscale_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static vi cvt_f2i(vf x) { return _mm512_cvtps_epi32(x); }
  static vf pow2(vi n) {
    return _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
  }

  // int8 dot support: 64 bytes per step via the AVX-512BW vpmaddubsw/vpmaddwd
  // pair (same idiom as AVX2, twice the width).  The VNNI trait below
  // replaces this with the fused vpdpbusd.
  using vb = __m512i;
  static vb load_b(const void* p) { return _mm512_loadu_si512(p); }
  static vb set1_b(char x) { return _mm512_set1_epi8(x); }
  static vi zero_i32() { return _mm512_setzero_si512(); }
  static vi dpbusd(vi acc, vb a, vb b) {
    const __m512i pair16 = _mm512_maddubs_epi16(a, b);
    const __m512i quad32 = _mm512_madd_epi16(pair16, _mm512_set1_epi16(1));
    return _mm512_add_epi32(acc, quad32);
  }
  static std::int32_t reduce_add_i32(vi v) { return _mm512_reduce_add_epi32(v); }
  static vi load_s8_i32(const std::int8_t* p) {
    return _mm512_cvtepi8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static vi mullo_i32(vi a, vi b) { return _mm512_mullo_epi32(a, b); }
  static void storeu_i32(std::int32_t* p, vi v) { _mm512_storeu_si512(p, v); }
};

#endif  // AVX-512 F/BW/DQ/VL

// --- AVX-512 VNNI (W = 16) --------------------------------------------------
// Identical to SimdAvx512 except the u8 x s8 dot step, which becomes one
// fused vpdpbusd (no i16 intermediate at all).  Only the avx512_vnni.cpp TU,
// compiled with -mavx512vnni on top of the AVX-512 flags, sees this trait.

#if defined(__AVX512VNNI__) && defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__)

struct SimdAvx512Vnni : SimdAvx512 {
  static vi dpbusd(vi acc, vb a, vb b) { return _mm512_dpbusd_epi32(acc, a, b); }
};

#endif  // AVX-512 VNNI

template <class S>
typename S::vf simd_exp(typename S::vf x) {
  using vf = typename S::vf;
  const vf kLog2e = S::set1(1.442695040888963387f);
  const vf kLn2Hi = S::set1(0.693359375f);
  const vf kLn2Lo = S::set1(-2.12194440e-4f);
  const vf kMax = S::set1(88.3762626647950f);
  const vf kMin = S::set1(-87.3365478515625f);

  x = S::max(S::min(x, kMax), kMin);

  const vf fx = S::round_nearest(S::mul(x, kLog2e));
  x = S::fnmadd(fx, kLn2Hi, x);
  x = S::fnmadd(fx, kLn2Lo, x);

  vf y = S::set1(1.9875691500e-4f);
  y = S::fmadd(y, x, S::set1(1.3981999507e-3f));
  y = S::fmadd(y, x, S::set1(8.3334519073e-3f));
  y = S::fmadd(y, x, S::set1(4.1665795894e-2f));
  y = S::fmadd(y, x, S::set1(1.6666665459e-1f));
  y = S::fmadd(y, x, S::set1(5.0000001201e-1f));
  y = S::fmadd(y, S::mul(x, x), S::add(x, S::set1(1.0f)));

  return S::mul(y, S::pow2(S::cvt_f2i(fx)));
}

}  // namespace slide::kernels
