#include "util/fault_injection.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace slide::util {
namespace {

// Thread-local xorshift64*; independent streams per thread, seeded off the
// injector's sequence counter so repeated runs differ but stay cheap.
std::uint64_t next_u64(std::atomic<std::uint64_t>& seq) {
  thread_local std::uint64_t state = 0;
  if (state == 0) {
    state = seq.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed) |
            1ull;
  }
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1Dull;
}

bool parse_double(std::string_view s, double& out) {
  // std::from_chars<double> is missing on some libc++; strtod on a copy.
  const std::string tmp(s);
  char* end = nullptr;
  out = std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size() && !tmp.empty();
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

}  // namespace

const char* fault_point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::EngineDelay: return "engine-delay";
    case FaultPoint::EngineFail: return "engine-fail";
    case FaultPoint::SocketDrop: return "sock-drop";
    case FaultPoint::SocketStall: return "sock-stall";
    case FaultPoint::AdmissionFail: return "admission-fail";
    case FaultPoint::kCount: break;
  }
  return "?";
}

FaultInjector::FaultInjector() {
  if (const char* spec = std::getenv("SLIDE_FAULTS")) {
    std::string error;
    if (!configure(spec, &error)) {
      log_warn("fault injection: ignoring SLIDE_FAULTS: ", error);
    } else if (enabled()) {
      log_warn("fault injection armed: SLIDE_FAULTS=", spec);
    }
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector fi;
  return fi;
}

void FaultInjector::set(FaultPoint p, double probability, std::uint64_t param_us,
                        std::uint64_t max_triggers) {
  Point& pt = points_[static_cast<std::size_t>(p)];
  const bool was_armed = pt.probability.load(std::memory_order_relaxed) > 0.0;
  const bool now_armed = probability > 0.0;
  pt.param_us.store(param_us, std::memory_order_relaxed);
  pt.remaining.store(max_triggers == 0 ? -1 : static_cast<std::int64_t>(max_triggers),
                     std::memory_order_relaxed);
  pt.probability.store(now_armed ? probability : 0.0, std::memory_order_relaxed);
  if (now_armed != was_armed) {
    armed_.fetch_add(now_armed ? 1 : -1, std::memory_order_relaxed);
  }
}

void FaultInjector::reset() {
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    set(static_cast<FaultPoint>(i), 0.0);
  }
}

bool FaultInjector::configure(const std::string& spec, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  // Validate into a staging list first so a bad spec changes nothing.
  struct Entry {
    FaultPoint point;
    double probability;
    std::uint64_t param_us = 0;
    std::uint64_t max_triggers = 0;
  };
  std::vector<Entry> entries;

  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (item.empty()) continue;

    const auto eq = item.find('=');
    if (eq == std::string_view::npos) {
      return fail("missing '=' in '" + std::string(item) + "'");
    }
    const std::string_view name = item.substr(0, eq);
    Entry e{FaultPoint::kCount, 0.0};
    for (std::size_t i = 0; i < kNumPoints; ++i) {
      if (name == fault_point_name(static_cast<FaultPoint>(i))) {
        e.point = static_cast<FaultPoint>(i);
      }
    }
    if (e.point == FaultPoint::kCount) {
      return fail("unknown fault point '" + std::string(name) + "'");
    }

    std::string_view value = item.substr(eq + 1);
    const auto c1 = value.find(':');
    if (!parse_double(value.substr(0, c1), e.probability) || e.probability < 0.0 ||
        e.probability > 1.0) {
      return fail("bad probability in '" + std::string(item) + "'");
    }
    if (c1 != std::string_view::npos) {
      std::string_view tail = value.substr(c1 + 1);
      const auto c2 = tail.find(':');
      if (!parse_u64(tail.substr(0, c2), e.param_us)) {
        return fail("bad param_us in '" + std::string(item) + "'");
      }
      if (c2 != std::string_view::npos &&
          !parse_u64(tail.substr(c2 + 1), e.max_triggers)) {
        return fail("bad max_triggers in '" + std::string(item) + "'");
      }
    }
    entries.push_back(e);
  }
  for (const Entry& e : entries) set(e.point, e.probability, e.param_us, e.max_triggers);
  return true;
}

bool FaultInjector::should_fail(FaultPoint p) {
  Point& pt = points_[static_cast<std::size_t>(p)];
  const double probability = pt.probability.load(std::memory_order_relaxed);
  if (probability <= 0.0) return false;
  if (probability < 1.0) {
    const double roll =
        static_cast<double>(next_u64(seed_seq_) >> 11) * 0x1.0p-53;  // [0, 1)
    if (roll >= probability) return false;
  }
  // Spend one trigger from a bounded budget; losers of the race don't fire.
  std::int64_t budget = pt.remaining.load(std::memory_order_relaxed);
  while (budget >= 0) {
    if (budget == 0) return false;
    if (pt.remaining.compare_exchange_weak(budget, budget - 1,
                                           std::memory_order_relaxed)) {
      if (budget == 1) set(p, 0.0);  // budget spent: disarm
      break;
    }
  }
  pt.triggered.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::maybe_delay(FaultPoint p) {
  // Read before should_fail(): spending a budget's last trigger disarms the
  // point, which zeroes its parameter.
  const std::uint64_t us =
      points_[static_cast<std::size_t>(p)].param_us.load(std::memory_order_relaxed);
  if (!should_fail(p)) return false;
  if (us != 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  return true;
}

std::uint64_t FaultInjector::triggered(FaultPoint p) const {
  return points_[static_cast<std::size_t>(p)].triggered.load(std::memory_order_relaxed);
}

}  // namespace slide::util
