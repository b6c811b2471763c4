#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/mem_info.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Full precision, and always a valid JSON number.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Report::fail_gate(const std::string& why) {
  std::fprintf(stderr, "perfbench: gate failed: %s\n", why.c_str());
  gate_failures_.push_back(why);
}

void Report::add_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print(std::FILE* out) const {
  std::string stamp = "{";
  for (std::size_t i = 0; i < stamp_.size(); ++i) {
    if (i > 0) stamp += ", ";
    stamp += "\"" + json_escape(stamp_[i].first) + "\": \"" + json_escape(stamp_[i].second) +
             "\"";
  }
  stamp += "}";
  std::fprintf(out, "stamp: %s\n", stamp.c_str());
  for (const auto& [name, m] : metrics_) {
    std::fprintf(out, "metric %-40s %16.6g %-8s n=%zu\n", name.c_str(), m.value,
                 m.unit.c_str(), m.samples);
  }
  for (const auto& g : gate_failures_) std::fprintf(out, "gate failed: %s\n", g.c_str());

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted_));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(name) + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + json_escape(m.unit) +
            "\", \"n\": " + std::to_string(m.samples) + "}";
  }
  json += "}, \"stamp\": " + stamp + "}";
  std::fprintf(out, "%s\n", json.c_str());
  std::fflush(out);
}

std::uint32_t Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                          std::uint32_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{parent, name, start, end});
  return static_cast<std::uint32_t>(spans_.size());  // ids start at 1
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent) {
  const auto now = Clock::now();
  return add(name, now, now, parent);
}

void Tracer::close(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = Clock::now();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream f(path);
  if (!f) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
      << "\", \"start_us\": " << json_number(us(s.start))
      << ", \"end_us\": " << json_number(us(s.end)) << "}\n";
  }
  return static_cast<bool>(f);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  return static_cast<double>(slide::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
