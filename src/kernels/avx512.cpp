// AVX-512 backend (paper Sections 4.2-4.4).
//
// This translation unit is the only one compiled with -mavx512{f,bw,dq,vl};
// it must never be entered on a CPU without those features (the dispatcher
// guarantees that).  Everything lane-width-generic lives in kernels_generic.h
// instantiated against SimdAvx512 (16 fp32 lanes, opmask tails, native
// gather/scatter); only the kernels where AVX-512 genuinely diverges from
// the shared shape remain hand-written below.
#include <immintrin.h>

#include "kernels/backend_tables.h"
#include "kernels/kernels_generic.h"
#include "kernels/simd.h"

namespace slide::kernels {

void wta_winners_avx512(const float* values, std::size_t num_bins, std::uint8_t* winners) {
  // One 8-wide bin per __m256: broadcast the horizontal max, then the first
  // equal lane is the winner (matching the scalar backend's tie rule).  Uses
  // the AVX-512VL 256-bit opmask compare, which the generic layer (built
  // around full-width fp32 vectors) doesn't model.
  for (std::size_t b = 0; b < num_bins; ++b) {
    const __m256 v = _mm256_loadu_ps(values + 8 * b);
    __m256 t = _mm256_max_ps(v, _mm256_permute2f128_ps(v, v, 1));
    t = _mm256_max_ps(t, _mm256_shuffle_ps(t, t, _MM_SHUFFLE(1, 0, 3, 2)));
    t = _mm256_max_ps(t, _mm256_shuffle_ps(t, t, _MM_SHUFFLE(2, 3, 0, 1)));
    const __mmask8 eq = _mm256_cmp_ps_mask(v, t, _CMP_EQ_OQ);
    winners[b] = eq == 0 ? 0 : static_cast<std::uint8_t>(__builtin_ctz(eq));
  }
}

namespace {

constexpr KernelTable build_table() {
  KernelTable t = make_kernel_table<SimdAvx512>("avx512");
  t.wta_winners_f32 = wta_winners_avx512;
  return t;
}

}  // namespace

const KernelTable kAvx512Table = build_table();

}  // namespace slide::kernels
