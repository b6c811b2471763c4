// End-to-end fault tolerance for the serving stack: request deadlines,
// deadline-aware shedding, graceful degradation under pressure, injected
// engine/socket/admission faults, client retry with reconnect, malformed
// and truncated wire frames, and idle-connection reaping.  Everything here
// must degrade or error cleanly — never crash, hang, or leak a future.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <future>
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
#include "util/crc32c.h"
#include "util/fault_injection.h"

namespace slide {
namespace {

// Every TCP-level test runs over both transports: the wire behavior
// (deadlines, retry, chaos, malformed frames, idle reaping) must be
// indistinguishable between the thread-per-connection and epoll paths.
constexpr serve::TransportKind kTransports[] = {serve::TransportKind::Threads,
                                                serve::TransportKind::Epoll};

// Small trained model shared by every test in this TU (same pattern as
// test_serving.cpp: train once, serve read-only).
class FaultToleranceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig dcfg;
    dcfg.feature_dim = 60;
    dcfg.label_dim = 80;
    dcfg.num_train = 400;
    dcfg.num_test = 96;
    dcfg.avg_nnz = 10;
    dcfg.num_clusters = 8;
    dcfg.seed = 29;
    auto [train, test] = data::make_xc_datasets(dcfg);
    queries_ = new data::Dataset(std::move(test));

    LshLayerConfig lsh;
    lsh.kind = HashKind::Dwta;
    lsh.k = 3;
    lsh.l = 8;
    lsh.min_active = 24;
    Network net(make_slide_mlp(60, 16, 80, lsh, Precision::Fp32, 4321));
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

  // The injector is a process-wide singleton; every test must leave it
  // disarmed even on assertion failure.
  void TearDown() override { util::FaultInjector::instance().reset(); }

  static const infer::PackedModel& model() { return *model_; }
  static const data::Dataset& queries() { return *queries_; }

  static infer::PackedModel* model_;
  static data::Dataset* queries_;
};

infer::PackedModel* FaultToleranceTest::model_ = nullptr;
data::Dataset* FaultToleranceTest::queries_ = nullptr;

// A server for tests that park its dispatcher inside a first batch
// (park_dispatcher.h): the requests submitted meanwhile sit queued until
// that batch returns, so deadline/shedding behavior is deterministic, and
// one batch then takes the whole backlog.
serve::ServerConfig parked_config() {
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 1024;
  cfg.queue_capacity = 256;
  cfg.k = 5;
  return cfg;
}

// How long a parked first batch holds the dispatcher: far longer than the
// tests need to submit the requests that must queue behind it.
constexpr std::chrono::milliseconds kPark{200};

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32c, MatchesKnownAnswer) {
  // The CRC-32C (Castagnoli) check value for the ASCII digits "123456789".
  EXPECT_EQ(util::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c("", 0), 0u);
}

TEST(Crc32c, ComposesAcrossChunks) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = sizeof(data) - 1;
  const std::uint32_t whole = util::crc32c(data, n);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7}, n - 1}) {
    const std::uint32_t first = util::crc32c(data, cut);
    EXPECT_EQ(util::crc32c(data + cut, n - cut, first), whole) << "cut " << cut;
  }
}

// --- FaultInjector ---------------------------------------------------------

TEST_F(FaultToleranceTest, InjectorConfigureParsesAndRejects) {
  auto& fi = util::FaultInjector::instance();
  std::string error;
  ASSERT_TRUE(fi.configure("engine-delay=0.5:2000,engine-fail=1:0:3", &error)) << error;
  EXPECT_TRUE(fi.enabled());
  fi.reset();
  EXPECT_FALSE(fi.enabled());

  // A bad spec reports an error and arms nothing.
  EXPECT_FALSE(fi.configure("engine-fail=2.0", &error));       // p > 1
  EXPECT_FALSE(fi.configure("no-such-point=0.5", &error));     // unknown point
  EXPECT_FALSE(fi.configure("engine-fail", &error));           // missing '='
  EXPECT_FALSE(fi.configure("engine-fail=0.5:abc", &error));   // bad param
  EXPECT_FALSE(fi.enabled());
}

TEST_F(FaultToleranceTest, InjectorTriggerBudgetDisarmsItself) {
  auto& fi = util::FaultInjector::instance();
  fi.set(util::FaultPoint::EngineFail, 1.0, 0, /*max_triggers=*/2);
  EXPECT_TRUE(fi.should_fail(util::FaultPoint::EngineFail));
  EXPECT_TRUE(fi.should_fail(util::FaultPoint::EngineFail));
  // Budget spent: the point disarmed itself.
  EXPECT_FALSE(fi.should_fail(util::FaultPoint::EngineFail));
  EXPECT_FALSE(fi.enabled());

  // A delay point sleeps on every budgeted trigger, the last one included.
  fi.set(util::FaultPoint::EngineDelay, 1.0, /*param_us=*/20000, /*max_triggers=*/1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fi.maybe_delay(util::FaultPoint::EngineDelay));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(20));
  EXPECT_FALSE(fi.maybe_delay(util::FaultPoint::EngineDelay));
  EXPECT_FALSE(fi.enabled());
}

// --- deadlines and shedding ------------------------------------------------

TEST_F(FaultToleranceTest, ExpiredRequestIsShedBeforeDispatch) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  serve::ServerConfig cfg = parked_config();
  cfg.pool = &pool;
  serve::BatchingServer server(engine, cfg);

  // The dispatcher is parked in a 200ms batch but the deadline is 2ms: the
  // next formation must shed the request, not serve it late.
  ParkedDispatcher park(kPark);
  std::future<serve::Reply> parked = server.submit(queries().features(1));
  ASSERT_TRUE(park.wait());
  const auto t0 = std::chrono::steady_clock::now();
  serve::Reply r = server.submit(queries().features(0), 5, /*deadline_us=*/2000).get();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, serve::RequestStatus::DeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 2000);
  EXPECT_EQ(parked.get().status, serve::RequestStatus::Ok);
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.stats().completed, 1u);  // the parked request only
}

TEST_F(FaultToleranceTest, NoDeadlineMeansNoExpiry) {
  infer::InferenceEngine engine(model());
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 8;
  cfg.k = 5;
  serve::BatchingServer server(engine, cfg);
  serve::Reply r = server.submit(queries().features(0), 5, /*deadline_us=*/0).get();
  EXPECT_EQ(r.status, serve::RequestStatus::Ok);
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST_F(FaultToleranceTest, SaturatedQueueShedsMostSlackFirst) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  serve::ServerConfig cfg = parked_config();
  cfg.pool = &pool;
  cfg.queue_capacity = 4;
  cfg.admission = serve::Admission::Reject;
  serve::BatchingServer server(engine, cfg);

  ParkedDispatcher park(kPark);
  std::future<serve::Reply> in_flight = server.submit(queries().features(6));
  ASSERT_TRUE(park.wait());
  // Fill the queue with no-deadline requests (infinite slack)...
  std::vector<std::future<serve::Reply>> parked;
  for (int i = 0; i < 4; ++i) {
    parked.push_back(server.submit(queries().features(i)));
  }
  // ...then submit one with a real (generous) deadline: it must be admitted
  // by evicting one of the slack-infinite requests, not bounced.
  auto urgent = server.submit(queries().features(4), 5, /*deadline_us=*/60000000);
  // And one MORE with a LOOSER deadline than the queue's tightest: rejected
  // outright (no queued request has strictly more slack than forever except
  // the remaining no-deadline ones — one of those gets evicted again).
  auto urgent2 = server.submit(queries().features(5), 5, /*deadline_us=*/60000000);

  server.drain();
  std::size_t shed = 0, served = 0;
  for (auto& f : parked) {
    const auto s = f.get().status;
    shed += s == serve::RequestStatus::Rejected;
    served += s == serve::RequestStatus::Ok;
  }
  EXPECT_EQ(shed, 2u);    // two victims evicted for the two urgent arrivals
  EXPECT_EQ(served, 2u);  // the rest of the parked requests still served
  EXPECT_EQ(urgent.get().status, serve::RequestStatus::Ok);
  EXPECT_EQ(urgent2.get().status, serve::RequestStatus::Ok);
  EXPECT_EQ(in_flight.get().status, serve::RequestStatus::Ok);
  EXPECT_EQ(server.stats().shed, 2u);
}

TEST_F(FaultToleranceTest, PressureDegradesDenseToSampledAndFlagsReplies) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  serve::ServerConfig cfg = parked_config();
  cfg.pool = &pool;
  cfg.queue_capacity = 64;
  cfg.mode = infer::TopKMode::Dense;
  cfg.pressure.degrade_fill = 0.01;  // any non-empty backlog trips Pressure
  serve::BatchingServer server(engine, cfg);

  ParkedDispatcher park(kPark);
  std::future<serve::Reply> in_flight = server.submit(queries().features(0));
  ASSERT_TRUE(park.wait());
  std::vector<std::future<serve::Reply>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.submit(queries().features(i % 8)));
  }
  server.drain();  // forms the batch with the full backlog visible
  std::size_t degraded = 0;
  for (auto& f : futures) {
    const serve::Reply r = f.get();
    ASSERT_EQ(r.status, serve::RequestStatus::Ok);
    degraded += r.degraded;
  }
  EXPECT_EQ(degraded, futures.size());  // the whole backlog went sampled
  // The parked request's backlog of one (1/64 of the queue) tripped it too.
  EXPECT_TRUE(in_flight.get().degraded);
  EXPECT_EQ(server.stats().degraded, futures.size() + 1);
}

TEST_F(FaultToleranceTest, DegradationRespectsMasterSwitch) {
  infer::InferenceEngine engine(model());
  ThreadPool pool(4);
  serve::ServerConfig cfg = parked_config();
  cfg.pool = &pool;
  cfg.queue_capacity = 64;
  cfg.pressure.degrade_fill = 0.01;
  cfg.pressure.allow_degrade = false;
  serve::BatchingServer server(engine, cfg);
  ParkedDispatcher park(kPark);
  std::vector<std::future<serve::Reply>> futures;
  futures.push_back(server.submit(queries().features(0)));
  ASSERT_TRUE(park.wait());
  for (int i = 0; i < 32; ++i) futures.push_back(server.submit(queries().features(i % 8)));
  server.drain();
  for (auto& f : futures) EXPECT_FALSE(f.get().degraded);
  EXPECT_EQ(server.stats().degraded, 0u);
}

// --- injected faults through the batching core -----------------------------

TEST_F(FaultToleranceTest, EngineFailureCompletesRequestsWithErrorAndRecovers) {
  infer::InferenceEngine engine(model());
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 1;  // one request per batch: deterministic
  cfg.k = 5;
  serve::BatchingServer server(engine, cfg);

  util::FaultInjector::instance().set(util::FaultPoint::EngineFail, 1.0, 0,
                                      /*max_triggers=*/1);
  serve::Reply failed = server.submit(queries().features(0)).get();
  EXPECT_EQ(failed.status, serve::RequestStatus::Error);
  EXPECT_TRUE(failed.ids.empty());

  // The dispatcher survived the engine failure and keeps serving.
  serve::Reply ok = server.submit(queries().features(1)).get();
  EXPECT_EQ(ok.status, serve::RequestStatus::Ok);
  EXPECT_EQ(server.stats().errors, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST_F(FaultToleranceTest, AdmissionFaultBouncesOneRequest) {
  infer::InferenceEngine engine(model());
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 1;
  cfg.k = 5;
  serve::BatchingServer server(engine, cfg);

  util::FaultInjector::instance().set(util::FaultPoint::AdmissionFail, 1.0, 0,
                                      /*max_triggers=*/1);
  EXPECT_EQ(server.submit(queries().features(0)).get().status,
            serve::RequestStatus::Rejected);
  EXPECT_EQ(server.submit(queries().features(1)).get().status,
            serve::RequestStatus::Ok);
}

// --- TCP: deadlines, retry, chaos ------------------------------------------

serve::ServerConfig fast_config() {
  serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 16;
  cfg.queue_capacity = 256;
  cfg.k = 5;
  return cfg;
}

TEST_F(FaultToleranceTest, DeadlineRidesTheWire) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    ThreadPool pool(4);
    serve::ServerConfig cfg = parked_config();
    cfg.pool = &pool;
    serve::BatchingServer server(engine, cfg);
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    serve::TcpClient client("127.0.0.1", tcp->port());
    serve::QueryReply reply;
    // 2ms budget against a dispatcher parked in a 200ms batch: the server
    // must shed, and the client must see the typed status.
    ParkedDispatcher park(kPark);
    std::future<serve::Reply> parked = server.submit(queries().features(1));
    ASSERT_TRUE(park.wait());
    ASSERT_TRUE(client.query(queries().features(0), 5, reply, /*deadline_us=*/2000));
    EXPECT_EQ(reply.status, serve::Status::DeadlineExceeded);
    EXPECT_EQ(parked.get().status, serve::RequestStatus::Ok);
    tcp->stop();
  }
}

TEST_F(FaultToleranceTest, V1FramesWithoutDeadlineStillServe) {
  // Hand-build a version-1 request: no deadline_us field.
  const auto q = queries().features(0);
  std::vector<std::uint8_t> v1;
  serve::wire::put_u8(v1, 1);  // version 1
  serve::wire::put_u8(v1, static_cast<std::uint8_t>(serve::Opcode::TopK));
  serve::wire::put_u16(v1, 0);
  serve::wire::put_u32(v1, 5);
  serve::wire::put_u32(v1, static_cast<std::uint32_t>(q.nnz));
  serve::wire::put_array(v1, q.indices, q.nnz);
  serve::wire::put_array(v1, q.values, q.nnz);

  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::BatchingServer server(engine, fast_config());
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    serve::TcpClient client("127.0.0.1", tcp->port());
    serve::QueryReply reply;
    ASSERT_TRUE(client.round_trip_raw(v1, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_EQ(reply.ids.size(), 5u);
    EXPECT_FALSE(reply.degraded);
    tcp->stop();
  }
}

TEST_F(FaultToleranceTest, ClientRetriesThroughDroppedConnection) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::BatchingServer server(engine, fast_config());
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    // The server will drop exactly one connection instead of replying; the
    // client's retry loop must reconnect and succeed transparently.
    util::FaultInjector::instance().set(util::FaultPoint::SocketDrop, 1.0, 0,
                                        /*max_triggers=*/1);
    serve::TcpClientConfig ccfg;
    ccfg.io_timeout_ms = 2000;
    ccfg.max_retries = 3;
    ccfg.backoff_initial_ms = 1;
    serve::TcpClient client("127.0.0.1", tcp->port(), ccfg);
    serve::QueryReply reply;
    ASSERT_TRUE(client.query_with_retry(queries().features(0), 5, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_EQ(client.reconnects(), 1u);
    tcp->stop();
    util::FaultInjector::instance().reset();
  }
}

TEST_F(FaultToleranceTest, SocketStallIsAbsorbedByIoTimeout) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::BatchingServer server(engine, fast_config());
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    // Stall every reply by 5ms; a client with a 2s timeout just waits it out.
    util::FaultInjector::instance().set(util::FaultPoint::SocketStall, 1.0,
                                        /*param_us=*/5000, /*max_triggers=*/4);
    serve::TcpClientConfig ccfg;
    ccfg.io_timeout_ms = 2000;
    serve::TcpClient client("127.0.0.1", tcp->port(), ccfg);
    serve::QueryReply reply;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.query(queries().features(i), 5, reply)) << i;
      EXPECT_EQ(reply.status, serve::Status::Ok);
    }
    tcp->stop();
    util::FaultInjector::instance().reset();
  }
}

TEST_F(FaultToleranceTest, ChaosMixNeverHangsOrCrashes) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::ServerConfig cfg = fast_config();
    cfg.queue_capacity = 32;
    serve::BatchingServer server(engine, cfg);
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    auto& fi = util::FaultInjector::instance();
    std::string error;
    ASSERT_TRUE(fi.configure(
        "engine-fail=0.05,engine-delay=0.05:500,sock-drop=0.02,admission-fail=0.05",
        &error))
        << error;

    constexpr unsigned kClients = 4;
    constexpr int kPerClient = 50;
    std::vector<int> answered(kClients, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        serve::TcpClientConfig ccfg;
        ccfg.io_timeout_ms = 5000;
        ccfg.max_retries = 5;
        ccfg.backoff_initial_ms = 1;
        ccfg.backoff_max_ms = 20;
        serve::TcpClient client("127.0.0.1", tcp->port(), ccfg);
        int got = 0;
        serve::QueryReply reply;
        for (int i = 0; i < kPerClient; ++i) {
          const auto& q = queries().features((t * kPerClient + i) % queries().size());
          // With retries, every request must end in a decoded reply (any
          // status) — never a hang, never an unexplained dead socket.
          if (client.query_with_retry(q, 5, reply, /*deadline_us=*/1000000)) ++got;
        }
        answered[t] = got;
      });
    }
    for (auto& t : threads) t.join();
    fi.reset();
    tcp->stop();
    for (unsigned t = 0; t < kClients; ++t) {
      EXPECT_EQ(answered[t], kPerClient) << "client " << t;
    }
    // The server survived: whatever was admitted was answered.
    const serve::ServerStats st = server.stats();
    EXPECT_EQ(st.accepted, st.completed + st.expired + st.shed + st.errors);
  }
}

// --- malformed / truncated frames and idle connections ---------------------

// Raw socket helper: connect, send exactly `bytes`, optionally read one
// reply frame, close.  Lets tests break the framing in ways TcpClient
// refuses to.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_all(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
      const ssize_t put = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (put <= 0) return false;
      p += put;
      n -= static_cast<std::size_t>(put);
    }
    return true;
  }

  // Reads until EOF or `n` bytes; returns bytes read.
  std::size_t read_some(void* buf, std::size_t n) {
    auto* p = static_cast<std::uint8_t*>(buf);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, p + got, n - got, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    return got;
  }

 private:
  int fd_ = -1;
};

TEST_F(FaultToleranceTest, MalformedFramesNeverCrashTheServer) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::BatchingServer server(engine, fast_config());
    auto tcp = serve::make_transport(kind, server, {});
    tcp->start();

    {  // Oversized length prefix: the server closes the connection.
      RawConn c(tcp->port());
      const std::uint32_t huge = serve::kMaxPayloadBytes + 1;
      ASSERT_TRUE(c.send_all(&huge, sizeof(huge)));
      std::uint8_t buf[8];
      EXPECT_EQ(c.read_some(buf, sizeof(buf)), 0u);  // clean close, no reply
    }
    {  // Truncated length header then disconnect: clean close server-side.
      RawConn c(tcp->port());
      const std::uint8_t half[2] = {1, 0};
      ASSERT_TRUE(c.send_all(half, sizeof(half)));
    }
    {  // Mid-frame disconnect: 100-byte frame announced, 10 bytes sent.
      RawConn c(tcp->port());
      const std::uint32_t len = 100;
      std::uint8_t partial[10] = {};
      ASSERT_TRUE(c.send_all(&len, sizeof(len)));
      ASSERT_TRUE(c.send_all(partial, sizeof(partial)));
    }
    {  // Zero-length body: a BadRequest reply, connection stays usable.
      serve::TcpClient client("127.0.0.1", tcp->port());
      serve::QueryReply reply;
      ASSERT_TRUE(client.round_trip_raw({}, reply));
      EXPECT_EQ(reply.status, serve::Status::BadRequest);
      ASSERT_TRUE(client.query(queries().features(0), 5, reply));
      EXPECT_EQ(reply.status, serve::Status::Ok);
    }
    {  // Garbage version byte: BadRequest, connection stays usable.
      serve::TcpClient client("127.0.0.1", tcp->port());
      const auto q = queries().features(0);
      std::vector<std::uint8_t> frame =
          serve::encode_query({q.indices, q.nnz}, {q.values, q.nnz}, 5);
      frame[0] = 0xFF;
      serve::QueryReply reply;
      ASSERT_TRUE(client.round_trip_raw(frame, reply));
      EXPECT_EQ(reply.status, serve::Status::BadRequest);
    }

    // After all of the abuse the server still serves a clean client.
    serve::TcpClient client("127.0.0.1", tcp->port());
    serve::QueryReply reply;
    ASSERT_TRUE(client.query(queries().features(1), 5, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    tcp->stop();
  }
}

TEST_F(FaultToleranceTest, IdleConnectionsAreReaped) {
  for (const serve::TransportKind kind : kTransports) {
    SCOPED_TRACE(serve::transport_name(kind));
    infer::InferenceEngine engine(model());
    serve::BatchingServer server(engine, fast_config());
    serve::TransportConfig tcfg;
    tcfg.idle_timeout_ms = 50;
    auto tcp = serve::make_transport(kind, server, tcfg);
    tcp->start();

    serve::TcpClient client("127.0.0.1", tcp->port());
    serve::QueryReply reply;
    ASSERT_TRUE(client.query(queries().features(0), 5, reply));

    // Go idle past the timeout: the server closes its end; the next round
    // trip fails at the transport level and reconnect() restores service.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_FALSE(client.query(queries().features(0), 5, reply));
    EXPECT_GE(tcp->stats().idle_closed, 1u);
    ASSERT_TRUE(client.reconnect());
    ASSERT_TRUE(client.query(queries().features(0), 5, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    tcp->stop();
  }
}

}  // namespace
}  // namespace slide
