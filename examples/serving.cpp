// Micro-batching serving demo: many latency-bound clients, one engine.
//
//   ./example_serving
//
// Trains a small SLIDE classifier, freezes it, and stands up the full
// serving stack in-process: an InferenceEngine behind a BatchingServer,
// fronted here by client threads instead of the TCP layer (see `slide_cli
// serve` for the wire version).  Eight closed-loop clients fire single-query
// requests; the requests that queue while one engine batch runs form the
// next batch (up to max_batch_size), and per-request futures complete as
// each query finishes.  Ends with the server's own telemetry:
// batch-size amortization and p50/p95/p99 latency.
#include <cstdio>
#include <thread>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "serve/batching_server.h"

int main() {
  using namespace slide;

  // 1. Train and freeze a small model (see examples/freeze_serve.cpp).
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 1000;
  dcfg.label_dim = 400;
  dcfg.num_train = 6000;
  dcfg.num_test = 2000;
  dcfg.avg_nnz = 25;
  dcfg.num_clusters = 32;
  auto [train, test] = data::make_xc_datasets(dcfg);

  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 4;
  lsh.l = 20;
  lsh.min_active = 64;
  Network net(make_slide_mlp(train.feature_dim(), 128, train.label_dim(), lsh));
  TrainerConfig tcfg;
  tcfg.epochs = 3;
  Trainer trainer(net, tcfg);
  trainer.train(train, test);
  const infer::PackedModel packed = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(packed);

  // 2. Serving stack: bounded queue, blocking admission, batches of <= 64.
  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = 64;
  scfg.queue_capacity = 512;
  scfg.admission = serve::Admission::Block;
  scfg.k = 5;
  serve::BatchingServer server(engine, scfg);

  // 3. Eight closed-loop clients, each issuing one request at a time.
  constexpr unsigned kClients = 8;
  constexpr std::size_t kPerClient = 400;
  std::vector<std::thread> clients;
  std::vector<std::size_t> correct(kClients, 0);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < kPerClient * kClients; i += kClients) {
        const std::size_t q = i % test.size();
        const serve::Reply r = server.submit(test.features(q)).get();
        if (r.status == serve::RequestStatus::Ok && !r.ids.empty()) {
          for (const std::uint32_t label : test.labels(q)) {
            if (label == r.ids[0]) {
              ++correct[c];
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();

  // 4. What the batching bought: amortization + tail latency, from the
  //    server's own sharded histogram.
  const serve::ServerStats stats = server.stats();
  std::size_t hits = 0;
  for (const std::size_t c : correct) hits += c;
  std::printf("served %llu requests from %u clients, P@1=%.4f\n",
              static_cast<unsigned long long>(stats.completed), kClients,
              static_cast<double>(hits) / static_cast<double>(stats.completed));
  std::printf("batches: %llu (avg size %.1f over policy max %zu)\n",
              static_cast<unsigned long long>(stats.batches), stats.avg_batch_size,
              scfg.policy.max_batch_size);
  std::printf("latency us: p50=%llu p95=%llu p99=%llu  (queue-wait p50=%llu)\n",
              static_cast<unsigned long long>(stats.total_us.p50()),
              static_cast<unsigned long long>(stats.total_us.p95()),
              static_cast<unsigned long long>(stats.total_us.p99()),
              static_cast<unsigned long long>(stats.queue_us.p50()));
  return 0;
}
