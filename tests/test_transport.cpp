// Transport-level coverage for the epoll TCP front end
// (serve/epoll_server.h): the partial-read/partial-write machinery it needs
// on real sockets.  Multi-MB replies squeezed through tiny socket buffers,
// request frames dribbled in a few bytes at a time, pipelined ordering,
// hundreds of idle connections on the reactors, write-backlog overflow
// disconnect, fd-exhaustion accept backoff, graceful drain flushing
// in-flight replies, and closed connections releasing their resources.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/network.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "park_dispatcher.h"
#include "serve/batching_server.h"
#include "serve/protocol.h"
#include "serve/tcp_client.h"
#include "serve/transport.h"

namespace slide {
namespace {

// --- raw socket helpers ------------------------------------------------------

// Connects to loopback; rcvbuf_bytes > 0 shrinks SO_RCVBUF BEFORE connect so
// the handshake advertises a tiny window — the server is then forced through
// its short-write path on any reply larger than a few KB.
int raw_connect(std::uint16_t port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

// Reads exactly n bytes unless EOF/error cuts it short; returns bytes read.
std::size_t read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(4 + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(out.data(), &len, 4);
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  return out;
}

// Reads one length-prefixed reply frame and decodes it; false on EOF or a
// malformed frame.
bool read_reply(int fd, serve::QueryReply& reply) {
  std::uint32_t len = 0;
  if (read_exact(fd, &len, 4) != 4 || len > serve::kMaxPayloadBytes) return false;
  std::vector<std::uint8_t> payload(len);
  if (read_exact(fd, payload.data(), len) != len) return false;
  return serve::decode_reply(payload, reply);
}

// --- fixtures ----------------------------------------------------------------

// Untrained (weights don't matter — these tests exercise the wire, not the
// math) model with a quarter-million outputs: a full dense top-k reply is
// 8 + 262144*8 = 2,097,160 payload bytes, far beyond any socket buffer.
class BigReplyTransportTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kOutputs = 262144;

  static void SetUpTestSuite() {
    LshLayerConfig lsh;
    lsh.kind = HashKind::Dwta;
    lsh.k = 3;
    lsh.l = 4;
    lsh.min_active = 24;
    Network net(make_slide_mlp(32, 16, kOutputs, lsh, Precision::Fp32, 99));
    net.rebuild_hash_tables(nullptr);
    model_ = new infer::PackedModel(infer::PackedModel::freeze(net));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static const infer::PackedModel& model() { return *model_; }

  static serve::ServerConfig big_config() {
    serve::ServerConfig cfg;
    cfg.policy.max_batch_size = 4;
    cfg.k = kOutputs;  // allow full-output replies
    cfg.mode = infer::TopKMode::Dense;
    return cfg;
  }

  static std::vector<std::uint8_t> big_query(std::uint32_t k) {
    std::vector<std::uint32_t> idx;
    std::vector<float> val;
    for (std::uint32_t i = 0; i < 10; ++i) {
      idx.push_back(i);
      val.push_back(1.0f);
    }
    return serve::encode_query(idx, val, k);
  }

  static infer::PackedModel* model_;
};

infer::PackedModel* BigReplyTransportTest::model_ = nullptr;

// Small model for the tests where reply size is irrelevant.
class SmallTransportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LshLayerConfig lsh;
    lsh.kind = HashKind::Dwta;
    lsh.k = 3;
    lsh.l = 8;
    lsh.min_active = 24;
    Network net(make_slide_mlp(60, 16, 80, lsh, Precision::Fp32, 7));
    net.rebuild_hash_tables(nullptr);
    model_ = new infer::PackedModel(infer::PackedModel::freeze(net));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static const infer::PackedModel& model() { return *model_; }

  static serve::ServerConfig fast_config() {
    serve::ServerConfig cfg;
    cfg.policy.max_batch_size = 64;
    cfg.k = 64;
    cfg.mode = infer::TopKMode::Dense;
    return cfg;
  }

  static std::vector<std::uint8_t> small_query(std::uint32_t k) {
    const std::vector<std::uint32_t> idx = {1, 5, 9, 22, 41};
    const std::vector<float> val = {1.0f, 0.5f, 0.25f, 1.0f, 0.75f};
    return serve::encode_query(idx, val, k);
  }

  static infer::PackedModel* model_;
};

infer::PackedModel* SmallTransportTest::model_ = nullptr;

// --- multi-MB replies through tiny socket buffers ----------------------------

TEST_F(BigReplyTransportTest, LargeReplySurvivesShortWrites) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, big_config());
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, {});
  tcp->start();

  // A 4KB receive window against a 2MB reply: the server's send path hits
  // EAGAIN / short writes hundreds of times and must resume cleanly.
  const int fd = raw_connect(tcp->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_GE(fd, 0);

  // Dribble the request a few bytes at a time: the read side must
  // accumulate partial frames just as the write side must resume them.
  const std::vector<std::uint8_t> req = frame(big_query(kOutputs));
  for (std::size_t at = 0; at < req.size(); at += 7) {
    const std::size_t n = std::min<std::size_t>(7, req.size() - at);
    ASSERT_TRUE(send_all(fd, req.data() + at, n));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  serve::QueryReply reply;
  ASSERT_TRUE(read_reply(fd, reply));
  EXPECT_EQ(reply.status, serve::Status::Ok);
  EXPECT_EQ(reply.ids.size(), kOutputs);
  EXPECT_EQ(reply.scores.size(), kOutputs);
  ::close(fd);
  tcp->stop();
}

// --- pipelining keeps request order ------------------------------------------

TEST_F(SmallTransportTest, PipelinedQueriesReplyInRequestOrder) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, fast_config());
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, {});
  tcp->start();

  const int fd = raw_connect(tcp->port());
  ASSERT_GE(fd, 0);

  // 32 queries in one burst, no reads in between.  Query i asks for i+1
  // results, so each reply's count reveals which request it answers.
  constexpr std::uint32_t kPipelined = 32;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t i = 0; i < kPipelined; ++i) {
    const std::vector<std::uint8_t> f = frame(small_query(i + 1));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(send_all(fd, burst.data(), burst.size()));

  for (std::uint32_t i = 0; i < kPipelined; ++i) {
    serve::QueryReply reply;
    ASSERT_TRUE(read_reply(fd, reply)) << "reply " << i;
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_EQ(reply.ids.size(), i + 1) << "reply out of order at " << i;
  }
  ::close(fd);
  tcp->stop();
}

// --- high idle fan-in within a fixed thread budget ---------------------------

TEST_F(SmallTransportTest, EpollHoldsHundredsOfIdleConnections) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, fast_config());
  serve::TransportConfig tcfg;
  tcfg.reactors = 2;  // force multi-reactor sharding even on 1-core hosts
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, tcfg);
  tcp->start();

  constexpr int kIdle = 512;
  std::vector<int> conns;
  for (int i = 0; i < kIdle; ++i) {
    const int fd = raw_connect(tcp->port());
    ASSERT_GE(fd, 0) << "connection " << i;
    conns.push_back(fd);
  }

  // Every idle peer stays connected, and connections on both ends of the
  // accept order (different reactor shards) still serve queries.
  const std::vector<std::uint8_t> req = frame(small_query(5));
  for (const int fd : {conns.front(), conns[kIdle / 2], conns.back()}) {
    ASSERT_TRUE(send_all(fd, req.data(), req.size()));
    serve::QueryReply reply;
    ASSERT_TRUE(read_reply(fd, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_EQ(reply.ids.size(), 5u);
  }
  EXPECT_EQ(tcp->stats().connections_accepted, static_cast<std::uint64_t>(kIdle));

  for (const int fd : conns) ::close(fd);
  tcp->stop();
}

// --- a peer that stops reading is disconnected at the byte cap ---------------

TEST_F(BigReplyTransportTest, WriteBacklogOverflowDisconnectsSlowReader) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, big_config());
  serve::TransportConfig tcfg;
  tcfg.max_write_backlog_bytes = 256 * 1024;  // far below one 2MB reply
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, tcfg);
  tcp->start();

  const int fd = raw_connect(tcp->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> req = frame(big_query(kOutputs));
  ASSERT_TRUE(send_all(fd, req.data(), req.size()));

  // Never read: the reply frame blows past the backlog cap and the server
  // must drop the connection instead of buffering 2MB for a dead peer.
  std::uint8_t probe = 0;
  std::size_t drained = 0;
  for (;;) {
    const ssize_t r = ::recv(fd, &probe, 1, 0);
    if (r <= 0) break;  // EOF or reset: the server cut us off
    drained += static_cast<std::size_t>(r);
    ASSERT_LT(drained, std::size_t{4} + 8 + kOutputs * 8) << "full reply arrived";
  }
  EXPECT_EQ(tcp->stats().overflow_closed, 1u);
  ::close(fd);
  tcp->stop();
}

// --- fd exhaustion parks the accept loop instead of spinning -----------------

TEST_F(SmallTransportTest, AcceptBackoffSurvivesFdExhaustion) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, fast_config());
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, {});
  tcp->start();

  // Exhaust the process fd table, leaving exactly one slot for the client
  // socket: connect succeeds (the kernel completes the handshake via the
  // backlog) but the server's accept() hits EMFILE and must back off.
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  ASSERT_FALSE(hogs.empty());
  ::close(hogs.back());
  hogs.pop_back();

  const int fd = raw_connect(tcp->port());
  ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GE(tcp->stats().accept_backoffs, 1u);

  // Release the fd table: the parked accept path must come back on its
  // own and serve the connection that was waiting the whole time.
  for (const int h : hogs) ::close(h);
  hogs.clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  const std::vector<std::uint8_t> req = frame(small_query(5));
  ASSERT_TRUE(send_all(fd, req.data(), req.size()));
  serve::QueryReply reply;
  ASSERT_TRUE(read_reply(fd, reply));
  EXPECT_EQ(reply.status, serve::Status::Ok);
  ::close(fd);
  tcp->stop();
}

// --- graceful drain answers in-flight queries before closing -----------------

TEST_F(SmallTransportTest, EpollDrainFlushesInFlightReplies) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, fast_config());
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, {});
  tcp->start();

  // The first query parks the dispatcher inside its batch for 300ms and the
  // second waits in the batching queue behind it: stop() must flush both
  // eventual replies, in request order, not orphan them.
  ParkedDispatcher park(std::chrono::milliseconds(300));
  const int fd = raw_connect(tcp->port());
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> first = frame(small_query(5));
  ASSERT_TRUE(send_all(fd, first.data(), first.size()));
  ASSERT_TRUE(park.wait());
  const std::vector<std::uint8_t> second = frame(small_query(3));
  ASSERT_TRUE(send_all(fd, second.data(), second.size()));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().accepted < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_EQ(server.stats().accepted, 2u);
  tcp->stop();

  serve::QueryReply reply;
  ASSERT_TRUE(read_reply(fd, reply));
  EXPECT_EQ(reply.status, serve::Status::Ok);
  EXPECT_EQ(reply.ids.size(), 5u);
  ASSERT_TRUE(read_reply(fd, reply));
  EXPECT_EQ(reply.status, serve::Status::Ok);
  EXPECT_EQ(reply.ids.size(), 3u);
  // And nothing after them: the server closed the connection cleanly.
  std::uint8_t probe = 0;
  EXPECT_EQ(::recv(fd, &probe, 1, 0), 0);
  ::close(fd);
}

// --- a closed connection leaves nothing behind -------------------------------

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST_F(SmallTransportTest, ConnectionChurnReleasesEveryConnection) {
  infer::InferenceEngine engine(model());
  serve::BatchingServer server(engine, fast_config());
  auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, {});
  tcp->start();

  const auto cycle = [&] {
    serve::TcpClient client("127.0.0.1", tcp->port());
    serve::QueryReply reply;
    return client.round_trip_raw(small_query(5), reply) &&
           reply.status == serve::Status::Ok;
  };
  // The fd baseline comes before the warm-up: the server may not have
  // closed the warm-up connection's socket yet when the cycle returns.
  const std::size_t fds_before = open_fds();
  ASSERT_TRUE(cycle());  // warm-up: lazy engine and allocator state
  const std::size_t maps_before = mapping_count();

  constexpr int kCycles = 500;
  for (int i = 0; i < kCycles; ++i) ASSERT_TRUE(cycle()) << "cycle " << i;

  // The server closes its end once it reads the peer's EOF.  A connection
  // that kept a thread, a stack or an fd would show here: a thread stack is
  // about 2 mappings, so 500 leaked connections add about 1000.
  constexpr std::size_t kMaxNewMappings = 100;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while ((open_fds() != fds_before || mapping_count() >= maps_before + kMaxNewMappings) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(open_fds(), fds_before);
  EXPECT_LT(mapping_count(), maps_before + kMaxNewMappings)
      << "mappings before the churn: " << maps_before;
  EXPECT_EQ(tcp->stats().connections_accepted, static_cast<std::uint64_t>(kCycles + 1));
  tcp->stop();
}

}  // namespace
}  // namespace slide
