// Blocking client for the serving front end (serve/epoll_server.h): one
// TCP connection speaking the serve/protocol.h framing.  Used by the bench
// load generator, the CI loopback smoke test and the serving tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/sparse_batch.h"
#include "serve/protocol.h"

namespace slide::serve {

// Client-side fault-tolerance knobs.  Timeouts are per I/O call, not per
// logical query; 0 disables the respective timeout (fully blocking).
struct TcpClientConfig {
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 5000;  // bounds each send/recv inside one round trip
  // query_with_retry: attempts = 1 + max_retries, exponential backoff with
  // jitter between attempts, starting at backoff_initial_ms and capped at
  // backoff_max_ms.
  int max_retries = 3;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 500;
};

// Not thread-safe: one client per client thread.
//
// A transport failure (timeout, reset, malformed reply) leaves the client
// half-open: fd closed, host/port retained.  query_with_retry() reconnects
// and retries transparently; plain query() just reports false and leaves
// the reconnect decision to the caller (via reconnect()).
class TcpClient {
 public:
  // Throws std::runtime_error if the initial connect fails/times out.
  TcpClient(const std::string& host, std::uint16_t port, TcpClientConfig config = {});
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  // One framed round trip.  Returns false only on a transport/framing
  // failure (closed socket, timeout, malformed reply) — the connection is
  // then closed (half-open); protocol-level errors come back in
  // reply.status.  deadline_us rides the wire to the server (0 = none).
  bool query(data::SparseVectorView x, std::uint32_t k, QueryReply& reply,
             std::uint64_t deadline_us = 0);

  // query() plus the retry loop: reconnects after transport failures and
  // retries retryable statuses (Overloaded) with exponential backoff +
  // jitter.  True once a reply is decoded (its status may still be any
  // retryable status if every attempt bounced); false when every attempt
  // failed at the transport level.
  bool query_with_retry(data::SparseVectorView x, std::uint32_t k, QueryReply& reply,
                        std::uint64_t deadline_us = 0);

  // Sends raw payload bytes as one frame and reads one reply frame; lets
  // tests exercise the server's malformed-request handling.
  bool round_trip_raw(const std::vector<std::uint8_t>& payload, QueryReply& reply);

  bool connected() const { return fd_ >= 0; }
  bool reconnect();  // close + fresh connect; false (not throw) on failure
  void close();

  std::uint64_t reconnects() const { return reconnects_; }

 private:
  std::string host_;
  std::uint16_t port_ = 0;
  TcpClientConfig config_;
  int fd_ = -1;
  std::uint64_t reconnects_ = 0;
  std::uint64_t rng_;  // backoff jitter
};

}  // namespace slide::serve
