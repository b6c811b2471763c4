// The four workloads and the serving plumbing they share.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/network.h"
#include "data/dataset.h"
#include "fixtures.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "loadgen.h"
#include "report.h"
#include "serve/batching_server.h"
#include "serve/transport.h"

namespace perfbench {

// train-amazon and train-wiki-bf16-stream.
void run_train_workload(const Options& opt, const TrainShape& shape, Report& report,
                        Tracer& tracer);
// serve-dense-fp32 (int8_sampled = false) and serve-sampled-int8.
void run_serve_workload(const Options& opt, bool int8_sampled, Report& report,
                        Tracer& tracer);

// A frozen model served through BatchingServer and the epoll transport on
// an ephemeral loopback port.  Admission::Reject, no deadlines.
struct ServingStack {
  std::unique_ptr<slide::infer::PackedModel> model;
  std::unique_ptr<slide::infer::InferenceEngine> engine;
  std::unique_ptr<slide::serve::BatchingServer> server;
  std::unique_ptr<slide::serve::ServerTransport> transport;

  ServingStack() = default;
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack();
};

std::unique_ptr<ServingStack> start_serving(
    const slide::Network& net, slide::Precision precision, slide::infer::TopKMode mode,
    std::span<const slide::data::SparseVectorView> calibration);

// One encoded top-5 request per query of `queries`.
std::vector<std::vector<std::uint8_t>> encode_queries(const slide::data::Dataset& queries);

// serve.*, loadgen.* and infer.* metrics for one window served by `stack`
// (the server registry's stage quantiles plus the client-side view).
void report_serve_layers(ServingStack& stack, const LoadResult& window,
                         const slide::data::Dataset& queries, slide::infer::TopKMode mode,
                         Tracer& tracer, Report& report);

}  // namespace perfbench
