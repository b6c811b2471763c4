// In-process coverage for the src/serve/ subsystem: batching parity with
// direct engine calls, bounded-queue admission semantics, drain, concurrent
// clients, and the TCP loopback round trip — the wire tests run under BOTH
// transports (thread-per-connection and epoll) through the ServerTransport
// seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "park_dispatcher.h"
#include "serve/batching_server.h"
#include "serve/protocol.h"
#include "serve/tcp_server.h"
#include "serve/transport.h"

namespace slide {
namespace {

// Small trained model shared by every test in this TU (training once keeps
// the suite fast; the engine and servers never mutate it).
class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig dcfg;
    dcfg.feature_dim = 60;
    dcfg.label_dim = 80;
    dcfg.num_train = 400;
    dcfg.num_test = 96;
    dcfg.avg_nnz = 10;
    dcfg.num_clusters = 8;
    dcfg.seed = 17;
    auto [train, test] = data::make_xc_datasets(dcfg);
    queries_ = new data::Dataset(std::move(test));

    LshLayerConfig lsh;
    lsh.kind = HashKind::Dwta;
    lsh.k = 3;
    lsh.l = 8;
    lsh.min_active = 24;
    Network net(make_slide_mlp(60, 16, 80, lsh, Precision::Fp32, 1234));
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

  static const infer::PackedModel& model() { return *model_; }
  static const data::Dataset& queries() { return *queries_; }

  static infer::PackedModel* model_;
  static data::Dataset* queries_;
};

infer::PackedModel* ServingTest::model_ = nullptr;
data::Dataset* ServingTest::queries_ = nullptr;

serve::ServerConfig batching_config() {
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 16;
  cfg.queue_capacity = 256;
  cfg.k = 5;
  return cfg;
}

// The wire-level tests run identically over both ServerTransport
// implementations; a failure names the transport via SCOPED_TRACE.
constexpr serve::TransportKind kTransports[] = {serve::TransportKind::Threads,
                                                serve::TransportKind::Epoll};

TEST_F(ServingTest, BatchedResultsIdenticalToDirectEngineCalls) {
  infer::InferenceEngine engine(model());

  // Ground truth first: direct single-query calls on the same engine.
  std::vector<std::vector<std::uint32_t>> want_ids(queries().size());
  std::vector<std::vector<float>> want_scores(queries().size());
  for (std::size_t i = 0; i < queries().size(); ++i) {
    engine.predict_topk(queries().features(i), 5, want_ids[i], infer::TopKMode::Dense,
                        &want_scores[i]);
  }

  serve::BatchingServer server(engine, batching_config());
  std::vector<std::future<serve::Reply>> futures;
  futures.reserve(queries().size());
  for (std::size_t i = 0; i < queries().size(); ++i) {
    futures.push_back(server.submit(queries().features(i)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::Reply r = futures[i].get();
    ASSERT_EQ(r.status, serve::RequestStatus::Ok) << "query " << i;
    EXPECT_EQ(r.ids, want_ids[i]) << "query " << i;
    EXPECT_EQ(r.scores, want_scores[i]) << "query " << i;
  }

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, queries().size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.avg_batch_size, 1.0);
  EXPECT_EQ(stats.total_us.count, queries().size());
}

TEST_F(ServingTest, PerRequestKCapsTheReply) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, batching_config());
  serve::Reply r = server.submit(queries().features(0), /*k=*/2).get();
  ASSERT_EQ(r.status, serve::RequestStatus::Ok);
  EXPECT_EQ(r.ids.size(), 2u);  // below the server cap of 5
  r = server.submit(queries().features(0), /*k=*/100).get();
  EXPECT_EQ(r.ids.size(), 5u);  // clamped to the server cap
}

TEST_F(ServingTest, RejectAdmissionBouncesOverload) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 1024;
  cfg.queue_capacity = 4;
  cfg.admission = serve::Admission::Reject;
  cfg.pool = &pool;
  serve::BatchingServer server(engine, cfg);

  // The first request parks the dispatcher inside its batch, so the queue
  // fills and stays full while the next 12 arrive.
  ParkedDispatcher park(std::chrono::milliseconds(200));
  std::vector<std::future<serve::Reply>> futures;
  futures.push_back(server.submit(queries().features(0)));
  ASSERT_TRUE(park.wait());
  for (std::size_t i = 1; i <= 12; ++i) {
    futures.push_back(server.submit(queries().features(i % queries().size())));
  }
  // Accepted: the parked request plus exactly queue_capacity queued ones.
  std::size_t rejected = 0;
  server.drain();
  for (auto& f : futures) {
    if (f.get().status == serve::RequestStatus::Rejected) ++rejected;
  }
  EXPECT_EQ(rejected, futures.size() - (cfg.queue_capacity + 1));
  EXPECT_EQ(server.stats().rejected, rejected);
  EXPECT_EQ(server.stats().completed, cfg.queue_capacity + 1);
}

TEST_F(ServingTest, BlockAdmissionCompletesEverythingWithBoundedQueue) {
  infer::InferenceEngine engine(model());
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 4;
  cfg.queue_capacity = 2;  // tiny: producers must block, not fail
  cfg.admission = serve::Admission::Block;
  serve::BatchingServer server(engine, cfg);

  constexpr unsigned kProducers = 8;
  constexpr std::size_t kPerProducer = 25;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto& q = queries().features((t * kPerProducer + i) % queries().size());
        if (server.submit(q).get().status == serve::RequestStatus::Ok) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ok.load(), kProducers * kPerProducer);
  EXPECT_EQ(server.stats().completed, kProducers * kPerProducer);
  EXPECT_EQ(server.stats().rejected, 0u);
}

TEST_F(ServingTest, DrainCompletesAllAcceptedThenRefuses) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 1024;
  cfg.queue_capacity = 64;
  cfg.pool = &pool;
  serve::BatchingServer server(engine, cfg);

  // Drain while one batch runs and 20 requests wait behind it.
  ParkedDispatcher park(std::chrono::milliseconds(200));
  std::vector<std::future<serve::Reply>> futures;
  futures.push_back(server.submit(queries().features(0)));
  ASSERT_TRUE(park.wait());
  for (std::size_t i = 1; i <= 20; ++i) {
    futures.push_back(server.submit(queries().features(i % queries().size())));
  }
  EXPECT_EQ(server.stats().queue_depth, 20u);
  server.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, serve::RequestStatus::Ok);

  // Post-drain submissions are refused, not queued forever.
  serve::Reply after = server.submit(queries().features(0)).get();
  EXPECT_EQ(after.status, serve::RequestStatus::ShuttingDown);
  EXPECT_TRUE(server.draining());
}

// Reads the value of one exposed series line ("<series> <value>"); -1 when
// the series is absent.
double exposed_value(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const auto at = text.find(key);
  return at == std::string::npos ? -1.0 : std::stod(text.substr(at + key.size()));
}

TEST_F(ServingTest, CoalescesOnlyWhileABatchRuns) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  const auto ns = [](std::chrono::steady_clock::time_point t) {
    return t.time_since_epoch().count();
  };
  for (const std::size_t max_batch : {std::size_t{64}, std::size_t{8}}) {
    SCOPED_TRACE(max_batch);
    serve::ServerConfig cfg;
    cfg.policy.max_batch_size = max_batch;
    cfg.pool = &pool;
    serve::BatchingServer server(engine, cfg);

    // An idle dispatcher serves what is queued at once: a request submitted
    // after the previous reply forms a batch of its own.
    constexpr std::size_t kSequential = 5;
    for (std::size_t i = 0; i < kSequential; ++i) {
      const serve::Reply r = server.submit(queries().features(i)).get();
      ASSERT_EQ(r.status, serve::RequestStatus::Ok);
      EXPECT_EQ(server.stats().batches, i + 1);
    }

    // Requests that arrive while a batch runs form the next batches, in
    // FIFO order and max_batch at a time.
    constexpr std::size_t kQueued = 20;
    ParkedDispatcher park(std::chrono::milliseconds(200));
    std::future<serve::Reply> parked = server.submit(queries().features(0));
    ASSERT_TRUE(park.wait());
    std::vector<std::future<serve::Reply>> futures;
    for (std::size_t i = 0; i < kQueued; ++i) {
      futures.push_back(server.submit(queries().features(i)));
    }
    std::vector<serve::Reply> replies;
    replies.push_back(parked.get());
    for (auto& f : futures) replies.push_back(f.get());

    // Replies sharing a formation stamp rode one batch.  Walking them in
    // submission order, a new stamp opens the next batch, which formed only
    // after every reply of the previous one was final.
    std::vector<std::size_t> sizes;
    std::int64_t last_inferred = 0;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const serve::Reply& r = replies[i];
      ASSERT_EQ(r.status, serve::RequestStatus::Ok) << i;
      if (i == 0 || r.timing.formed != replies[i - 1].timing.formed) {
        EXPECT_GE(ns(r.timing.formed), last_inferred) << i;
        sizes.push_back(0);
      }
      ++sizes.back();
      last_inferred = std::max(last_inferred, ns(r.timing.inferred));
    }
    const std::vector<std::size_t> want =
        max_batch == 64 ? std::vector<std::size_t>{1, 20}
                        : std::vector<std::size_t>{1, 8, 8, 4};
    EXPECT_EQ(sizes, want);

    // slide_batch_queries holds one sample per batch: the sequential ones,
    // the parked one and the batches of the 20.
    const std::string text = server.metrics().expose();
    EXPECT_NE(text.find("# TYPE slide_batch_queries summary\n"), std::string::npos);
    const double batches = static_cast<double>(kSequential + want.size());
    EXPECT_EQ(exposed_value(text, "slide_batch_queries_count"), batches);
    EXPECT_EQ(exposed_value(text, "slide_batches_total"), batches);
    EXPECT_EQ(exposed_value(text, "slide_batch_queries_sum"),
              static_cast<double>(kSequential + 1 + kQueued));
    EXPECT_EQ(exposed_value(text, "slide_batch_queries{quantile=\"0.99\"}"),
              static_cast<double>(*std::max_element(want.begin(), want.end())));
  }
}

TEST_F(ServingTest, ConcurrentClientsGetCorrectAnswers) {
  infer::InferenceEngine engine(model());
  std::vector<std::vector<std::uint32_t>> want(queries().size());
  for (std::size_t i = 0; i < queries().size(); ++i) {
    engine.predict_topk(queries().features(i), 5, want[i]);
  }

  serve::ServerConfig cfg = batching_config();
  cfg.queue_capacity = 64;
  cfg.admission = serve::Admission::Block;
  serve::BatchingServer server(engine, cfg);

  constexpr unsigned kClients = 8;  // acceptance floor: >= 8 concurrent clients
  std::vector<int> all_match(kClients, 0);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      bool all = true;
      // Every client walks the whole set from a different stride so batches
      // constantly mix queries from different clients.
      for (std::size_t step = 0; step < 2 * queries().size(); ++step) {
        const std::size_t i = (step * (t + 1) + t) % queries().size();
        const serve::Reply r = server.submit(queries().features(i)).get();
        all = all && r.status == serve::RequestStatus::Ok && r.ids == want[i];
      }
      all_match[t] = all;
    });
  }
  for (auto& t : clients) t.join();
  for (unsigned t = 0; t < kClients; ++t) EXPECT_TRUE(all_match[t]) << "client " << t;
}

TEST_F(ServingTest, SampledModeServes) {
  infer::InferenceEngine engine(model());
  serve::ServerConfig cfg = batching_config();
  cfg.mode = infer::TopKMode::Sampled;
  serve::BatchingServer server(engine, cfg);
  for (std::size_t i = 0; i < 16; ++i) {
    const serve::Reply r = server.submit(queries().features(i)).get();
    ASSERT_EQ(r.status, serve::RequestStatus::Ok);
    ASSERT_FALSE(r.ids.empty());
    ASSERT_EQ(r.ids.size(), r.scores.size());
    for (const std::uint32_t id : r.ids) EXPECT_LT(id, model().output_dim());
  }
}

TEST_F(ServingTest, SubmitAsyncMatchesFutureReplies) {
  infer::InferenceEngine engine(model());
  constexpr std::size_t kQueries = 24;
  std::vector<std::vector<std::uint32_t>> want(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    engine.predict_topk(queries().features(i), 5, want[i]);
  }

  serve::BatchingServer server(engine, batching_config());
  std::mutex m;
  std::condition_variable cv;
  std::size_t done = 0;
  bool all_ok = true;
  for (std::size_t i = 0; i < kQueries; ++i) {
    server.submit_async(queries().features(i), 0, 0, [&, i](serve::Reply&& r) {
      std::lock_guard<std::mutex> lock(m);
      all_ok = all_ok && r.status == serve::RequestStatus::Ok && r.ids == want[i];
      if (++done == kQueries) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done == kQueries; });
  }
  EXPECT_TRUE(all_ok);

  // After drain, the callback still fires exactly once — synchronously,
  // with ShuttingDown.
  server.drain();
  serve::RequestStatus after = serve::RequestStatus::Ok;
  int calls = 0;
  server.submit_async(queries().features(0), 0, 0, [&](serve::Reply&& r) {
    after = r.status;
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(after, serve::RequestStatus::ShuttingDown);
}

TEST_F(ServingTest, TcpLoopbackRoundTrip) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::BatchingServer server(engine, batching_config());
    serve::TransportConfig tcfg;  // port 0: ephemeral
    auto tcp = serve::make_transport(kind, server, tcfg);
    ASSERT_NE(tcp->port(), 0);
    tcp->start();

    std::vector<std::uint32_t> want;
    std::vector<float> want_scores;
    {
      serve::TcpClient client("127.0.0.1", tcp->port());
      serve::QueryReply reply;
      for (std::size_t i = 0; i < 32; ++i) {
        engine.predict_topk(queries().features(i), 5, want, infer::TopKMode::Dense,
                            &want_scores);
        ASSERT_TRUE(client.query(queries().features(i), 5, reply)) << "query " << i;
        ASSERT_EQ(reply.status, serve::Status::Ok);
        EXPECT_EQ(reply.ids, want) << "query " << i;
        EXPECT_EQ(reply.scores, want_scores) << "query " << i;
      }

      // Malformed frames get error replies and the connection stays usable.
      std::vector<std::uint8_t> bogus =
          serve::encode_query({queries().features(0).indices, queries().features(0).nnz},
                              {queries().features(0).values, queries().features(0).nnz},
                              5);
      bogus[0] = 99;  // wrong protocol version
      ASSERT_TRUE(client.round_trip_raw(bogus, reply));
      EXPECT_EQ(reply.status, serve::Status::BadRequest);
      ASSERT_TRUE(client.query(queries().features(0), 5, reply));
      EXPECT_EQ(reply.status, serve::Status::Ok);

      // Out-of-range / unsorted indices never reach the kernels.
      const std::uint32_t wild_idx[] = {5, 4};  // unsorted
      const float wild_val[] = {1.0f, 1.0f};
      ASSERT_TRUE(
          client.round_trip_raw(serve::encode_query(wild_idx, wild_val, 5), reply));
      EXPECT_EQ(reply.status, serve::Status::BadRequest);
      const std::uint32_t oob_idx[] = {1000000};  // >= input_dim
      const float oob_val[] = {1.0f};
      ASSERT_TRUE(
          client.round_trip_raw(serve::encode_query(oob_idx, oob_val, 5), reply));
      EXPECT_EQ(reply.status, serve::Status::BadRequest);

      // A truncated feature array is also a BadRequest, not a hang.
      std::vector<std::uint8_t> truncated =
          serve::encode_query({queries().features(0).indices, queries().features(0).nnz},
                              {queries().features(0).values, queries().features(0).nnz},
                              5);
      truncated.resize(truncated.size() - 4);
      ASSERT_TRUE(client.round_trip_raw(truncated, reply));
      EXPECT_EQ(reply.status, serve::Status::BadRequest);
    }

    tcp->stop();  // graceful: drains the batching core
    EXPECT_TRUE(server.draining());
    EXPECT_GE(tcp->stats().connections_accepted, 1u);
  }
}

TEST_F(ServingTest, TcpConcurrentConnections) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::ServerConfig cfg = batching_config();
    // submit_async never blocks, so Block admission only applies to the
    // threaded transport; the shared queue capacity absorbs both.
    cfg.admission = serve::Admission::Block;
    serve::BatchingServer server(engine, cfg);
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    std::vector<std::vector<std::uint32_t>> want(queries().size());
    for (std::size_t i = 0; i < queries().size(); ++i) {
      engine.predict_topk(queries().features(i), 5, want[i]);
    }

    constexpr unsigned kClients = 8;
    std::vector<int> all_match(kClients, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        serve::TcpClient client("127.0.0.1", tcp->port());
        serve::QueryReply reply;
        bool all = true;
        for (std::size_t step = 0; step < queries().size(); ++step) {
          const std::size_t i = (step * (t + 1) + t) % queries().size();
          all = all && client.query(queries().features(i), 5, reply) &&
                reply.status == serve::Status::Ok && reply.ids == want[i];
        }
        all_match[t] = all;
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned t = 0; t < kClients; ++t) {
      EXPECT_TRUE(all_match[t]) << "client " << t;
    }
    tcp->stop();
    EXPECT_EQ(server.stats().completed, kClients * queries().size());
  }
}

TEST(ServeProtocol, QueryEncodeDecodeRoundTrip) {
  const std::uint32_t idx[] = {1, 5, 9};
  const float val[] = {0.5f, -1.0f, 2.0f};
  const std::vector<std::uint8_t> frame = serve::encode_query(idx, val, 7);
  serve::QueryRequest req;
  ASSERT_EQ(serve::decode_query(frame, req), serve::Status::Ok);
  EXPECT_EQ(req.k, 7u);
  EXPECT_EQ(req.indices, (std::vector<std::uint32_t>{1, 5, 9}));
  EXPECT_EQ(req.values, (std::vector<float>{0.5f, -1.0f, 2.0f}));
}

TEST(ServeProtocol, DecodeRejectsGarbage) {
  serve::QueryRequest req;
  std::string reason;
  EXPECT_EQ(serve::decode_query(std::vector<std::uint8_t>{1, 2}, req, &reason),
            serve::Status::BadRequest);
  EXPECT_FALSE(reason.empty());

  std::vector<std::uint8_t> frame = serve::encode_query({}, {}, 1);
  frame.push_back(0);  // trailing byte
  EXPECT_EQ(serve::decode_query(frame, req, &reason), serve::Status::BadRequest);
}

TEST(ServeProtocol, ErrorReplyRoundTrip) {
  const std::vector<std::uint8_t> frame =
      serve::encode_error_reply(serve::Status::Overloaded, "queue full");
  serve::QueryReply reply;
  ASSERT_TRUE(serve::decode_reply(frame, reply));
  EXPECT_EQ(reply.status, serve::Status::Overloaded);
  EXPECT_EQ(reply.error, "queue full");
}

}  // namespace
}  // namespace slide
