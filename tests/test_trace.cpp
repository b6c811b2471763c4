// Per-request stage tracing (ISSUE 10): the stage histograms must partition
// the end-to-end latency — queue + infer covers the in-process total, and
// queue + infer + encode + write covers admission-to-last-byte over the wire.
// Each stage is floor-rounded to whole microseconds, so the sums match within
// a few microseconds per request, never structurally.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "obs/metrics.h"
#include "serve/batching_server.h"
#include "serve/tcp_client.h"
#include "serve/transport.h"

namespace slide {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig dcfg;
    dcfg.feature_dim = 60;
    dcfg.label_dim = 80;
    dcfg.num_train = 300;
    dcfg.num_test = 64;
    dcfg.avg_nnz = 10;
    dcfg.num_clusters = 8;
    dcfg.seed = 23;
    auto [train, test] = data::make_xc_datasets(dcfg);
    queries_ = new data::Dataset(std::move(test));

    LshLayerConfig lsh;
    lsh.kind = HashKind::Dwta;
    lsh.k = 3;
    lsh.l = 8;
    lsh.min_active = 24;
    Network net(make_slide_mlp(60, 16, 80, lsh, Precision::Fp32, 99));
    TrainerConfig tcfg;
    tcfg.epochs = 1;
    tcfg.batch_size = 64;
    Trainer trainer(net, tcfg);
    trainer.train_one_epoch(train);
    net.rebuild_hash_tables(nullptr);
    model_ = new infer::PackedModel(infer::PackedModel::freeze(net));
  }

  static void TearDownTestSuite() {
    delete model_;
    delete queries_;
    model_ = nullptr;
    queries_ = nullptr;
  }

  static infer::PackedModel* model_;
  static data::Dataset* queries_;
};

infer::PackedModel* TraceTest::model_ = nullptr;
data::Dataset* TraceTest::queries_ = nullptr;

// Registering the same (name, labels) returns the live handle — that is the
// read-back mechanism for histograms the server registered internally.
std::uint64_t stage_sum(obs::MetricsRegistry& reg, const char* stage) {
  return reg.histogram("slide_request_stage_us", "", {{"stage", stage}})
      .snapshot()
      .sum;
}

TEST_F(TraceTest, QueuePlusInferCoversInProcessTotal) {
  infer::InferenceEngine engine(*model_);
  obs::MetricsRegistry reg;
  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = 16;
  scfg.queue_capacity = 256;
  scfg.k = 5;
  scfg.metrics = &reg;
  serve::BatchingServer server(engine, scfg);

  const std::size_t n = queries_->size();
  std::vector<std::future<serve::Reply>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(server.submit(queries_->features(i)));
  }
  for (auto& f : futures) ASSERT_EQ(f.get().status, serve::RequestStatus::Ok);
  server.drain();

  const auto total = reg.histogram("slide_request_total_us", "").snapshot();
  ASSERT_EQ(total.count, n);
  const std::uint64_t queue = stage_sum(reg, "queue");
  const std::uint64_t infer = stage_sum(reg, "infer");
  // Each of the three records floors independently: per request the sums can
  // disagree by at most ~2us either way.
  const std::uint64_t slack = 3 * n;
  EXPECT_LE(queue + infer, total.sum + slack);
  EXPECT_GE(queue + infer + slack, total.sum);
}

TEST_F(TraceTest, FourStagesPartitionEndToEndOverTheWire) {
  infer::InferenceEngine engine(*model_);
  obs::MetricsRegistry reg;
  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = 16;
  scfg.queue_capacity = 256;
  scfg.k = 5;
  scfg.metrics = &reg;
  serve::BatchingServer server(engine, scfg);
  auto transport = serve::make_transport(serve::TransportKind::Epoll, server, {});
  transport->start();

  const std::size_t n = queries_->size();
  {
    serve::TcpClient client("127.0.0.1", transport->port());
    serve::QueryReply reply;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(client.query(queries_->features(i), 5, reply)) << i;
      ASSERT_EQ(reply.status, serve::Status::Ok) << i;
    }
  }
  transport->stop();  // joins the reactors: every observe() has landed

  const auto e2e = reg.histogram("slide_request_e2e_us", "").snapshot();
  ASSERT_EQ(e2e.count, n);
  const std::uint64_t stages = stage_sum(reg, "queue") + stage_sum(reg, "infer") +
                               stage_sum(reg, "encode") + stage_sum(reg, "write");
  // Four floored stages vs one floored end-to-end: within ~5us per request.
  const std::uint64_t slack = 6 * n;
  EXPECT_LE(stages, e2e.sum + slack);
  EXPECT_GE(stages + slack, e2e.sum);

  // Every stage saw every Ok request.
  for (const char* stage : {"queue", "infer", "encode", "write"}) {
    EXPECT_EQ(reg.histogram("slide_request_stage_us", "", {{"stage", stage}})
                  .snapshot()
                  .count,
              n)
        << stage;
  }
}

TEST_F(TraceTest, ServerRegistryExposesLiveServingMetrics) {
  infer::InferenceEngine engine(*model_);
  obs::MetricsRegistry reg;
  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = 8;
  scfg.k = 5;
  scfg.metrics = &reg;
  serve::BatchingServer server(engine, scfg);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(server.submit(queries_->features(i)).get().status,
              serve::RequestStatus::Ok);
  }
  server.drain();
  const std::string text = reg.expose();
  EXPECT_NE(text.find("slide_requests_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("slide_requests_completed_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE slide_request_stage_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("slide_request_stage_us_count{stage=\"queue\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace slide
