// The serving stack's TCP front end, as the batching core and slide_cli see
// it.  There is one front end, EpollServer (serve/epoll_server.h): a small
// fixed pool of epoll reactors multiplexing every connection.  It serves
// the serve/protocol.h framing; BatchingServer and protocol.h never know
// which connection carried the bytes.
//
// ServerTransport has that one implementation and TransportKind one value.
// Both stay only because the repo benchmark names them
// (perfbench/src/workloads.h, perfbench/src/workload_serve.cpp); a change
// to the benchmark can construct EpollServer directly and drop them.
// make_transport also keeps the library building where epoll does not
// exist: there it throws, and training, freeze and predict still work.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/batching_server.h"
#include "serve/protocol.h"

namespace slide::serve {

struct TransportConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  int backlog = 256;
  // Close a connection once it has had no query in flight and has neither
  // received nor sent a byte for this long.  This also reaps a peer that
  // stalls mid-frame or stops reading its replies.  0 = no timeout.
  int idle_timeout_ms = 0;

  // Reactor (event-loop) threads.  0 = min(4, hardware_concurrency).
  int reactors = 0;
  // A connection whose unsent reply backlog exceeds this many bytes is
  // disconnected — a peer that stops reading cannot grow server memory
  // without bound.  Must comfortably exceed the largest single reply.
  std::size_t max_write_backlog_bytes = 16u << 20;
  // Reads pause (EPOLLIN off) once a connection has this many submitted-
  // but-unanswered queries — per-connection pipelining backpressure.
  std::size_t max_in_flight_per_conn = 256;
  // stop(): how long to wait for in-flight replies to flush to slow peers
  // before force-closing them.  The engine-side answer always completes;
  // this only bounds delivery.
  int drain_timeout_ms = 5000;

  // Emit one structured trace line for 1 out of every N answered requests
  // (stage-by-stage latency; see RequestTiming).  0 disables tracing.
  std::uint32_t trace_sample = 0;
};

struct TransportStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t idle_closed = 0;
  // accept() hit EMFILE/ENFILE (fd exhaustion) and the accept path backed
  // off before retrying.  A nonzero value under load means raise ulimit -n.
  std::uint64_t accept_backoffs = 0;
  // Connections dropped for exceeding max_write_backlog_bytes.
  std::uint64_t overflow_closed = 0;
};

class ServerTransport {
 public:
  virtual ~ServerTransport() = default;

  virtual std::uint16_t port() const = 0;
  virtual void start() = 0;  // idempotent
  virtual void stop() = 0;   // graceful; idempotent
  virtual TransportStats stats() const = 0;
};

enum class TransportKind { Epoll };

// Constructs the front end bound and listening (throws std::runtime_error
// on bind failure, and on systems without epoll); call start() to begin
// serving.
std::unique_ptr<ServerTransport> make_transport(TransportKind kind,
                                                BatchingServer& server,
                                                TransportConfig config);

// --- wire-level helpers ---

// Maps a batching-core Reply onto its wire frame payload: Ok rows become
// result frames, everything else the corresponding protocol error status.
std::vector<std::uint8_t> encode_reply_payload(const Reply& reply);

// Indices must fall inside the model's feature space and be strictly
// increasing (the engine's sparse kernels index weight rows with them
// unchecked — a wild index from the wire would read out of the arena).
bool valid_feature_indices(const QueryRequest& req, std::size_t input_dim);

// Wire-level stage telemetry: extends the server-side trace (queue, infer)
// with encode, write, and end-to-end histograms, and emits the sampled
// per-request trace lines.  Registers its series in the server's registry
// so one expose() covers the whole path.  Thread-safe; observe() is two
// histogram records plus an atomic tick.
class WireTelemetry {
 public:
  WireTelemetry(obs::MetricsRegistry& metrics, std::uint32_t trace_sample);

  // Records the transport stages for one answered request.  `encoded` is
  // when the reply frame was fully encoded, `written` when its last byte
  // was handed to the kernel.  Replies the engine never answered (rejected
  // at admission, expired, transport-level errors) carry no timing and are
  // skipped — the stage histograms partition exactly the Ok latency.
  void observe(const RequestTiming& timing,
               std::chrono::steady_clock::time_point encoded,
               std::chrono::steady_clock::time_point written,
               RequestStatus status, bool degraded);

 private:
  obs::Histogram& encode_us_;
  obs::Histogram& write_us_;
  obs::Histogram& e2e_us_;
  obs::TraceSampler sampler_;
};

// One shared rendering of the end-of-run serving stats (slide_cli serve's
// shutdown report and bench_serving_latency's chaos summary print the same
// lines).  Includes the transport line only when `tstats` is non-null.
std::string format_server_stats(const ServerStats& stats,
                                const TransportStats* tstats = nullptr);

}  // namespace slide::serve
