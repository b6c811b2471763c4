// AVX-512 VNNI backend: the AVX-512 table with vpdpbusd int8 dot products.
//
// This translation unit is the only one compiled with
// -mavx512{f,bw,dq,vl,vnni}; the dispatcher never enters it unless CPUID
// reports both the base AVX-512 subsets and VNNI.  SimdAvx512Vnni inherits
// every trait from SimdAvx512 and overrides only dpbusd, so the fp32 kernels
// here are the same code as the avx512 backend — the int8 kernels fuse the
// maddubs/madd/add triple into a single vpdpbusd.  The WTA winner
// extraction is avx512.cpp's.
#include "kernels/backend_tables.h"
#include "kernels/kernels_generic.h"
#include "kernels/simd.h"

namespace slide::kernels {
namespace {

constexpr KernelTable build_table() {
  KernelTable t = make_kernel_table<SimdAvx512Vnni>("avx512vnni");
  t.wta_winners_f32 = wta_winners_avx512;
  return t;
}

}  // namespace

const KernelTable kAvx512VnniTable = build_table();

}  // namespace slide::kernels
