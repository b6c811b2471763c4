#include "util/cpu_features.h"

#include <string>

namespace slide {

bool cpu_has_avx512() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512dq") &&
                          __builtin_cpu_supports("avx512vl");
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512_vnni() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool has = __builtin_cpu_supports("avx512vnni");
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512_bf16() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool has = __builtin_cpu_supports("avx512bf16");
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool has = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

const char* cpu_feature_string() {
  static const std::string features = [] {
    std::string out;
    if (cpu_has_avx512()) {
      out = "avx512f avx512bw avx512dq avx512vl ";
      if (cpu_has_avx512_vnni()) out += "avx512vnni ";
      if (cpu_has_avx512_bf16()) out += "avx512bf16 ";
    }
    if (cpu_has_avx2()) out += "avx2 fma";
    return out.empty() ? std::string("scalar-only") : out;
  }();
  return features.c_str();
}

}  // namespace slide
