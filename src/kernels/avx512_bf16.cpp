// AVX-512 BF16 backend: the VNNI table with native vdpbf16ps bf16 row dots.
//
// This translation unit is the only one compiled with
// -mavx512{f,bw,dq,vl,vnni,bf16}; the dispatcher never enters it unless
// CPUID reports the base AVX-512 subsets, VNNI and AVX512_BF16.
// SimdAvx512Bf16 inherits every trait from SimdAvx512Vnni and adds the
// vdpbf16ps step, which only dot_rows_wbf16_xbf16 picks up (Section 4.4's
// native BF16 arithmetic): each (row, query) dot feeds 32 bf16 pairs per
// step into one accumulator, so a query's sums never depend on its block.
// Every other kernel is the same code as the avx512vnni backend, and the
// WTA winner extraction is avx512.cpp's.
#include "kernels/backend_tables.h"
#include "kernels/kernels_generic.h"
#include "kernels/simd.h"

namespace slide::kernels {
namespace {

constexpr KernelTable build_table() {
  KernelTable t = make_kernel_table<SimdAvx512Bf16>("avx512bf16");
  t.wta_winners_f32 = wta_winners_avx512;
  return t;
}

}  // namespace

const KernelTable kAvx512Bf16Table = build_table();

}  // namespace slide::kernels
