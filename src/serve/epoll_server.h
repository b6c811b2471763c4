// Event-driven epoll TCP front end over the BatchingServer: the serving
// stack's one front end (serve/transport.h).
//
// A small fixed pool of reactor threads (default min(4, hw_threads)) each
// runs one epoll loop.  Connections are sharded at accept time: a
// connection is owned by exactly one reactor for its whole life, so every
// piece of per-connection state (read buffer, write queue, timers) is
// touched single-threaded with zero locks — the classic alternative to
// EPOLLONESHOT re-arming, with none of the re-arm syscall traffic.
//
//   reactor 0:  listener + its shard of connections
//   reactor i:  its shard of connections (fds handed over at accept)
//
// Per-connection state machine: reads are non-blocking and accumulate into
// a buffer; complete frames are peeled off incrementally, so a frame split
// across any number of partial reads (or thousands of frames arriving in
// one read) parses identically.  Each parsed query gets a sequence number
// and goes to BatchingServer::submit_async; replies complete on ENGINE
// threads, which encode the reply frame and push a node onto the owning
// reactor's lock-free completion stack (Treiber push + eventfd wakeup, no
// locks on the hot path).  The reactor re-orders completions by sequence
// number so pipelined clients see replies in request order, then writes
// through a bounded per-connection queue flushed on EPOLLOUT.
//
// Overload and abuse handling:
//   * A peer that stops reading accumulates reply bytes; past
//     max_write_backlog_bytes the connection is dropped (overflow_closed).
//   * Reads pause (EPOLLIN off) while a connection's write backlog or
//     in-flight count is high — per-connection backpressure that never
//     blocks the reactor.
//   * Idle connections are reaped via a per-reactor timer wheel with lazy
//     revalidation: activity (a byte received or sent) just bumps a
//     timestamp; the wheel entry migrates forward on expiry instead of
//     being rescheduled per frame.  A connection with a query in flight is
//     never idle; one whose peer stops reading its replies sends nothing,
//     and is reaped.
//   * accept() hitting fd exhaustion parks the listener for a backoff
//     interval (timer-wheel re-arm) instead of spinning.
//
// stop() is a graceful drain: listeners stop accepting, every connection is
// SHUT_RD (no new queries), in-flight replies flush to their peers (bounded
// by drain_timeout_ms), reactors join, and the batching core drains — every
// accepted query is answered; delivery to a stalled peer is best-effort
// within the drain timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/batching_server.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "util/eventfd.h"
#include "util/timer_wheel.h"

namespace slide::serve {

class EpollServer final : public ServerTransport {
 public:
  // Binds and listens immediately (throws std::runtime_error on failure).
  EpollServer(BatchingServer& server, TransportConfig config);
  ~EpollServer() override;  // implicit stop()

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  std::uint16_t port() const override { return port_; }
  void start() override;
  void stop() override;
  TransportStats stats() const override;

  int reactor_count() const { return static_cast<int>(reactors_.size()); }

 private:
  // One outbound frame plus the trace context needed to record the write
  // stage when its last byte leaves.  Locally answered frames (parse errors,
  // bad indices) never saw the engine and carry timed=false.
  struct OutFrame {
    std::vector<std::uint8_t> bytes;  // length-prefixed wire bytes
    RequestTiming timing;
    std::chrono::steady_clock::time_point encoded{};
    RequestStatus status = RequestStatus::Ok;
    bool degraded = false;
    bool timed = false;
  };

  // One reply travelling from an engine thread back to the owning reactor.
  struct Completion {
    Completion* next = nullptr;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    bool drop = false;  // sock-drop fault: close the connection unanswered
    OutFrame frame;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;

    // Read side: unparsed bytes accumulate here; parsed_ is the consumed
    // prefix (compacted after each parse pass).
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;

    // Reply ordering for pipelined clients: every parsed frame takes a
    // sequence number; completed replies park in `ready` until the next
    // contiguous sequence can enter the write queue.
    std::uint64_t next_seq = 0;
    std::uint64_t next_flush_seq = 0;
    std::map<std::uint64_t, OutFrame> ready;
    std::size_t in_flight = 0;  // submitted to the core, completion not yet seen

    // Write side: whole frames, flushed front-first; wq_off is the sent
    // prefix of the front frame.
    std::deque<OutFrame> wq;
    std::size_t wq_bytes = 0;
    std::size_t wq_off = 0;

    std::uint32_t armed = 0;  // epoll interest mask currently registered
    std::uint64_t last_activity_ms = 0;  // last byte received or sent
    bool draining = false;  // no more queries; close once fully flushed
  };

  // One event loop.  Everything here except `completions`/`intake` is
  // touched only by the owning reactor thread.
  struct Reactor {
    int index = 0;
    int ep = -1;
    util::EventFd wake;
    util::TimerWheel wheel;
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::atomic<Completion*> completions{nullptr};  // Treiber stack (MPSC)
    std::mutex intake_mutex;  // cold path: fds handed over at accept
    std::vector<int> intake;
    std::thread thread;
    bool draining = false;
    std::uint64_t drain_deadline_ms = 0;
    std::vector<std::uint64_t> expired_scratch;
  };

  void reactor_main(Reactor& r);
  void begin_drain(Reactor& r, std::uint64_t now_ms);
  void accept_ready(Reactor& r, std::uint64_t now_ms);
  void process_intake(Reactor& r, std::uint64_t now_ms);
  void process_completions(Reactor& r, std::uint64_t now_ms);
  void advance_timers(Reactor& r, std::uint64_t now_ms);
  Conn* add_conn(Reactor& r, int fd, std::uint64_t now_ms);
  void close_conn(Reactor& r, Conn& c);
  void update_interest(Reactor& r, Conn& c);
  // All return false when they closed the connection.
  bool handle_readable(Reactor& r, Conn& c, std::uint64_t now_ms);
  bool parse_frames(Reactor& r, Conn& c, std::uint64_t now_ms);
  bool flush_ready(Reactor& r, Conn& c, std::uint64_t now_ms);
  bool try_flush_writes(Reactor& r, Conn& c, std::uint64_t now_ms);
  void submit_query(Reactor& r, Conn& c, std::uint64_t seq, const QueryRequest& req);
  static void push_completion(Reactor& r, Completion* node);

  BatchingServer& server_;
  const TransportConfig config_;
  // Wire counters live in the server's registry (one expose() covers core +
  // transport); the references are just hot-path handles.
  obs::Counter& connections_;
  obs::Counter& idle_closed_;
  obs::Counter& accept_backoffs_;
  obs::Counter& overflow_closed_;
  WireTelemetry telemetry_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool listener_armed_ = false;  // reactor-0 state: registered in its epoll
  std::size_t next_shard_ = 0;   // round-robin accept distribution (reactor 0)

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::atomic<std::uint64_t> next_conn_id_;
};

}  // namespace slide::serve
