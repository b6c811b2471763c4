// Run options, metric report, span recorder and small statistics helpers
// shared by every perfbench workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // smoke-test scale: small data, short phases
  std::string workdir = ".";  // generated inputs and the span file go here
};

// Named metrics with unit and sample count, run stamp fields, correctness
// gates and the attempted/failed operation counts.  print() writes a human
// table and ends with one JSON line (the result record).
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  void stamp(const std::string& key, const std::string& value);
  // Records a failed correctness gate; the run's result becomes incorrect.
  void fail_gate(const std::string& why);
  void add_ops(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return gate_failures_.empty(); }
  void print(std::FILE* out) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> gate_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Spans recorded around calls into each layer, kept in memory and written
// out once at exit as JSON lines: {"id","parent","name","start_us","end_us"}.
// Thread-safe; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Returns the new span's id (0 when disabled).
  std::uint32_t add(const char* name, Clock::time_point start, Clock::time_point end,
                    std::uint32_t parent = 0);
  // A span whose end is set later by close() (for parents of other spans).
  std::uint32_t open(const char* name, std::uint32_t parent = 0);
  void close(std::uint32_t id);
  std::size_t size() const;
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t parent;
    const char* name;
    Clock::time_point start, end;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Exact quantile by linear interpolation (the `statistics` inclusive
// method); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Peak resident set size of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
