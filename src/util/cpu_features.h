// Runtime CPU feature detection used by the kernel dispatcher.
#pragma once

namespace slide {

// True when the running CPU supports every AVX-512 subset the vector
// backend was compiled against (F, BW, DQ, VL).
bool cpu_has_avx512();

// True when the running CPU additionally supports AVX-512 VNNI (vpdpbusd,
// the fused u8xs8 dot-product step used by the int8 backend).  Always check
// cpu_has_avx512() too: VNNI without the base subsets is not enterable.
bool cpu_has_avx512_vnni();

// True when the running CPU supports AVX512_BF16 (vdpbf16ps, the native
// bf16 pair dot of the avx512bf16 tier).  That tier also needs
// cpu_has_avx512() and cpu_has_avx512_vnni(): it is the VNNI table plus the
// native bf16 row dots.
bool cpu_has_avx512_bf16();

// True when the running CPU supports AVX2 and FMA3 (the AVX2 backend's
// requirements; FMA is a separate CPUID bit from AVX2).  The AVX2 int8
// kernels need nothing beyond AVX2 itself (vpmaddubsw/vpmaddwd are AVX2).
bool cpu_has_avx2();

// Human-readable summary ("avx512f ... avx512vnni avx512bf16 avx2 fma",
// "avx2 fma", or "scalar-only").
const char* cpu_feature_string();

}  // namespace slide
