// slide_perfbench: runs one named workload from a seed and prints its
// metrics (end-to-end, or per layer with --trace 1) ending in one JSON line.
// perfbench/run.py builds this program and is the supported entry point.
//
//   slide_perfbench --workload train-amazon --seed 1 --seconds 25 --trace 0
//                   [--tiny] [--workdir DIR]
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "kernels/kernels.h"
#include "report.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: slide_perfbench --workload <train-amazon|train-wiki-bf16-stream|"
               "serve-dense-fp32|serve-sampled-int8> --seed N --seconds S --trace 0|1 "
               "[--tiny] [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (v == nullptr) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = v, ++i;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v), ++i;
    } else if (a == "--trace") {
      opt.trace = std::atoi(v) != 0, ++i;
    } else if (a == "--workdir") {
      opt.workdir = v, ++i;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) return usage();
  ::mkdir(opt.workdir.c_str(), 0755);
  slide::set_log_level(slide::LogLevel::Warn);

  Report report;
  Tracer tracer(opt.trace);
  report.stamp("workload", opt.workload);
  report.stamp("seed", std::to_string(opt.seed));
  report.stamp("isa", slide::kernels::active_isa_name());
  report.stamp("cpu_flags", slide::cpu_feature_string());
  report.stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.stamp("trace", opt.trace ? "1" : "0");
  try {
    if (opt.workload == "train-amazon") {
      run_train_workload(opt, amazon_shape(opt), report, tracer);
    } else if (opt.workload == "train-wiki-bf16-stream") {
      run_train_workload(opt, wiki_shape(opt), report, tracer);
    } else if (opt.workload == "serve-dense-fp32") {
      run_serve_workload(opt, /*int8_sampled=*/false, report, tracer);
    } else if (opt.workload == "serve-sampled-int8") {
      run_serve_workload(opt, /*int8_sampled=*/true, report, tracer);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  if (tracer.enabled()) {
    const std::string path = opt.workdir + "/spans.jsonl";
    if (tracer.write(path)) {
      std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
    }
  }
  report.print(stdout);
  return report.correct() ? 0 : 1;
}
