// Runtime backend selection (drives the Table 4 vectorization ablation).
//
// Five-way priority dispatch: AVX-512+BF16 > AVX-512+VNNI > AVX-512 > AVX2 >
// scalar, each gated on both compile-time availability (SLIDE_HAVE_*) and
// CPUID.  The SLIDE_ISA environment variable overrides the automatic pick
// for the process, with a logged fallback when the request can't be honored.
#include <atomic>
#include <cstdlib>

#include "kernels/backend_tables.h"
#include "util/cpu_features.h"
#include "util/logging.h"

namespace slide::kernels {
namespace {

// The table for `isa`, or nullptr when that backend is compiled out or the
// CPU lacks the features it was compiled against.
const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return &kScalarTable;
    case Isa::Avx2:
#if SLIDE_HAVE_AVX2
      if (cpu_has_avx2()) return &kAvx2Table;
#endif
      return nullptr;
    case Isa::Avx512:
#if SLIDE_HAVE_AVX512
      if (cpu_has_avx512()) return &kAvx512Table;
#endif
      return nullptr;
    case Isa::Avx512Vnni:
#if SLIDE_HAVE_AVX512VNNI
      if (cpu_has_avx512() && cpu_has_avx512_vnni()) return &kAvx512VnniTable;
#endif
      return nullptr;
    case Isa::Avx512Bf16:
#if SLIDE_HAVE_AVX512BF16
      if (cpu_has_avx512() && cpu_has_avx512_vnni() && cpu_has_avx512_bf16()) {
        return &kAvx512Bf16Table;
      }
#endif
      return nullptr;
  }
  return nullptr;
}

// Every tier in ascending priority order.
constexpr Isa kIsas[] = {Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Avx512Vnni,
                         Isa::Avx512Bf16};

const KernelTable* best_table() { return table_for(preferred_isa()); }

// First-use backend: SLIDE_ISA if set and honorable, else the best available.
const KernelTable* initial_table() {
  const char* env = std::getenv("SLIDE_ISA");
  if (env == nullptr || *env == '\0') return best_table();
  const std::string_view request(env);
  if (request == "auto") return best_table();
  Isa isa;
  if (!parse_isa(request, &isa)) {
    log_warn("SLIDE_ISA='", env, "' is not a backend name (expected scalar | avx2 | ",
             "avx512 | avx512vnni | avx512bf16 | auto); using ", best_table()->name);
    return best_table();
  }
  if (const KernelTable* t = table_for(isa)) return t;
  log_warn("SLIDE_ISA=", env, " is unavailable on this CPU/build (features: ",
           cpu_feature_string(), "); falling back to ", best_table()->name);
  return best_table();
}

std::atomic<const KernelTable*> g_table{nullptr};

}  // namespace

namespace detail {
const KernelTable* active_table() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = initial_table();
    const KernelTable* expected = nullptr;
    g_table.compare_exchange_strong(expected, t, std::memory_order_acq_rel);
    t = g_table.load(std::memory_order_acquire);
  }
  return t;
}
}  // namespace detail

bool avx512_available() { return table_for(Isa::Avx512) != nullptr; }
bool isa_available(Isa isa) { return table_for(isa) != nullptr; }

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa : kIsas) {
    if (isa_available(isa)) out.push_back(isa);
  }
  return out;
}

Isa preferred_isa() { return available_isas().back(); }

bool set_isa(Isa isa) {
  const KernelTable* t = table_for(isa);
  if (t == nullptr) return false;
  g_table.store(t, std::memory_order_release);
  return true;
}

Isa active_isa() {
  const KernelTable* t = detail::active_table();
  for (const Isa isa : kIsas) {
    if (table_for(isa) == t) return isa;
  }
  return Isa::Scalar;
}

const char* active_isa_name() { return detail::active_table()->name; }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
    case Isa::Avx512Vnni: return "avx512vnni";
    case Isa::Avx512Bf16: return "avx512bf16";
  }
  return "unknown";
}

bool parse_isa(std::string_view name, Isa* out) {
  for (const Isa isa : kIsas) {
    if (name == isa_name(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

}  // namespace slide::kernels
