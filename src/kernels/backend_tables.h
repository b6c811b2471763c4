// Internal: backend table declarations shared by the dispatch and backend TUs.
#pragma once

#include "kernels/kernels.h"

namespace slide::kernels {

extern const KernelTable kScalarTable;
#if SLIDE_HAVE_AVX2
extern const KernelTable kAvx2Table;
#endif
#if SLIDE_HAVE_AVX512
extern const KernelTable kAvx512Table;
// avx512.cpp's in-register winner extraction.  The VNNI and BF16 tables,
// which only run where AVX-512 does, point at it too.
void wta_winners_avx512(const float* values, std::size_t num_bins, std::uint8_t* winners);
#endif
#if SLIDE_HAVE_AVX512VNNI
extern const KernelTable kAvx512VnniTable;
#endif
#if SLIDE_HAVE_AVX512BF16
extern const KernelTable kAvx512Bf16Table;
#endif

}  // namespace slide::kernels
