#ifdef __linux__

#include "serve/epoll_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "serve/net.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace slide::serve {

namespace {

// epoll_event.data.u64 tags.  Events carry connection IDS, not pointers:
// a connection closed earlier in the same event batch leaves stale events
// behind, and an id that misses the map is safely ignored where a dangling
// pointer would not be.
constexpr std::uint64_t kWakeTag = 0;      // per-reactor eventfd
constexpr std::uint64_t kListenerTag = 1;  // reactor 0 only; doubles as the
                                           // accept-backoff timer id
constexpr std::uint64_t kFirstConnId = 2;

constexpr std::uint64_t kAcceptBackoffMs = 100;
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxEvents = 256;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Prepends the 4-byte LE length so a completed reply is one contiguous
// buffer the write path can stream without re-framing.
std::vector<std::uint8_t> frame_bytes(std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.resize(4);
  std::memcpy(out.data(), &len, 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

EpollServer::EpollServer(BatchingServer& server, TransportConfig config)
    : server_(server),
      config_(std::move(config)),
      connections_(server.metrics().counter("slide_connections_total",
                                            "Connections accepted")),
      idle_closed_(server.metrics().counter("slide_connections_idle_closed_total",
                                            "Connections closed for idleness")),
      accept_backoffs_(server.metrics().counter(
          "slide_accept_backoffs_total",
          "accept() backoffs after fd exhaustion (EMFILE/ENFILE)")),
      overflow_closed_(server.metrics().counter(
          "slide_connections_overflow_closed_total",
          "Connections dropped for exceeding the write-backlog cap")),
      telemetry_(server.metrics(), config_.trace_sample),
      next_conn_id_(kFirstConnId) {
  listen_fd_ =
      net::create_listener(config_.bind_address, config_.port, config_.backlog, &port_);
  net::set_nonblocking(listen_fd_, true);

  int n = config_.reactors;
  if (n <= 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    n = static_cast<int>(std::min(4u, hw));
  }
  for (int i = 0; i < n; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (r->ep < 0) {
      const int saved = errno;
      for (auto& prev : reactors_) ::close(prev->ep);
      ::close(listen_fd_);
      errno = saved;
      net::throw_errno("epoll_create1");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(r->ep, EPOLL_CTL_ADD, r->wake.fd(), &ev);
    reactors_.push_back(std::move(r));
  }
}

EpollServer::~EpollServer() {
  stop();
  for (auto& r : reactors_) {
    if (r->ep >= 0) ::close(r->ep);
  }
}

void EpollServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(reactors_[0]->ep, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    net::throw_errno("epoll add listener");
  }
  listener_armed_ = true;
  log_info("serve: listening on ", config_.bind_address, ":", port_, " (epoll, ",
           reactors_.size(), " reactors)");
  for (auto& r : reactors_) {
    Reactor* rp = r.get();
    r->thread = std::thread([this, rp] { reactor_main(*rp); });
  }
}

void EpollServer::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& r : reactors_) r->wake.signal();
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  // Reactors are gone; the engine may still be finishing batches, and those
  // completions land on the stacks below.  drain() waits them all out, so
  // after it returns nothing pushes anymore and the purge is race-free.
  server_.drain();
  for (auto& r : reactors_) {
    for (auto& [id, c] : r->conns) ::close(c->fd);  // abnormal-exit leftovers
    r->conns.clear();
    {
      std::lock_guard<std::mutex> lock(r->intake_mutex);
      for (const int fd : r->intake) ::close(fd);
      r->intake.clear();
    }
    Completion* node = r->completions.exchange(nullptr, std::memory_order_acquire);
    while (node != nullptr) {
      Completion* next = node->next;
      delete node;
      node = next;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

TransportStats EpollServer::stats() const {
  TransportStats s;
  s.connections_accepted = connections_.value();
  s.idle_closed = idle_closed_.value();
  s.accept_backoffs = accept_backoffs_.value();
  s.overflow_closed = overflow_closed_.value();
  return s;
}

void EpollServer::reactor_main(Reactor& r) {
  std::vector<epoll_event> events(kMaxEvents);
  for (;;) {
    std::uint64_t now = now_ms();
    if (stopping_.load(std::memory_order_acquire)) {
      if (!r.draining) begin_drain(r, now);
      if (r.conns.empty()) return;
      if (now >= r.drain_deadline_ms) {
        // Stragglers kept the drain window busy (peer not reading its
        // replies, or an engine answer never came): force-close.
        std::vector<std::uint64_t> ids;
        ids.reserve(r.conns.size());
        for (const auto& [id, c] : r.conns) ids.push_back(id);
        for (const std::uint64_t id : ids) {
          auto it = r.conns.find(id);
          if (it != r.conns.end()) close_conn(r, *it->second);
        }
        return;
      }
    }

    int timeout = -1;
    const std::int64_t next_timer = r.wheel.ms_until_next(now);
    if (next_timer >= 0) {
      timeout = static_cast<int>(std::min<std::int64_t>(next_timer, 60'000));
    }
    if (r.draining) {
      const auto until_deadline = static_cast<int>(r.drain_deadline_ms - now);
      timeout = timeout < 0 ? until_deadline : std::min(timeout, until_deadline);
    }

    const int n = ::epoll_wait(r.ep, events.data(), kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      log_error("serve: epoll_wait failed: ", std::strerror(errno));
      return;
    }
    now = now_ms();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        r.wake.drain();
        continue;
      }
      if (tag == kListenerTag) {
        accept_ready(r, now);
        continue;
      }
      auto it = r.conns.find(tag);
      if (it == r.conns.end()) continue;  // closed earlier in this batch
      Conn& c = *it->second;
      if ((ev & EPOLLERR) != 0) {
        close_conn(r, c);
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLHUP)) != 0 && !handle_readable(r, c, now)) continue;
      if ((ev & EPOLLOUT) != 0 && !try_flush_writes(r, c, now)) continue;
    }
    process_intake(r, now);
    process_completions(r, now);
    advance_timers(r, now);
  }
}

void EpollServer::begin_drain(Reactor& r, std::uint64_t now) {
  r.draining = true;
  r.drain_deadline_ms =
      now + static_cast<std::uint64_t>(std::max(0, config_.drain_timeout_ms));
  if (r.index == 0 && listener_armed_) {
    ::epoll_ctl(r.ep, EPOLL_CTL_DEL, listen_fd_, nullptr);
    listener_armed_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(r.intake_mutex);
    for (const int fd : r.intake) ::close(fd);  // handed over, never registered
    r.intake.clear();
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(r.conns.size());
  for (const auto& [id, c] : r.conns) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    auto it = r.conns.find(id);
    if (it == r.conns.end()) continue;
    Conn& c = *it->second;
    ::shutdown(c.fd, SHUT_RD);  // no new queries; replies still flow out
    c.draining = true;
    if (c.in_flight == 0 && c.wq.empty() && c.ready.empty()) {
      close_conn(r, c);
    } else {
      update_interest(r, c);
    }
  }
}

void EpollServer::accept_ready(Reactor& r, std::uint64_t now) {
  if (stopping_.load(std::memory_order_acquire)) return;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: nothing frees up instantly, so park the listener
        // for a backoff interval (pending peers wait in the listen backlog)
        // and let the timer wheel re-arm it.
        accept_backoffs_.inc();
        log_warn("serve: accept failed (fd exhaustion, backing off): ",
                 std::strerror(errno));
        if (listener_armed_) {
          ::epoll_ctl(r.ep, EPOLL_CTL_DEL, listen_fd_, nullptr);
          listener_armed_ = false;
        }
        r.wheel.schedule(kListenerTag, now + kAcceptBackoffMs);
        return;
      }
      if (errno == ECONNABORTED || errno == ENOBUFS || errno == ENOMEM) {
        // Transient: level-triggered epoll re-reports remaining backlog.
        log_warn("serve: accept failed (transient): ", std::strerror(errno));
        return;
      }
      log_warn("serve: accept failed: ", std::strerror(errno));
      return;
    }
    net::enable_nodelay(fd);
    connections_.inc();
    Reactor& target = *reactors_[next_shard_];
    next_shard_ = (next_shard_ + 1) % reactors_.size();
    if (&target == &r) {
      add_conn(r, fd, now);
    } else {
      {
        std::lock_guard<std::mutex> lock(target.intake_mutex);
        target.intake.push_back(fd);
      }
      target.wake.signal();
    }
  }
}

void EpollServer::process_intake(Reactor& r, std::uint64_t now) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(r.intake_mutex);
    if (r.intake.empty()) return;
    fds.swap(r.intake);
  }
  for (const int fd : fds) {
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    add_conn(r, fd, now);
  }
}

EpollServer::Conn* EpollServer::add_conn(Reactor& r, int fd, std::uint64_t now) {
  auto conn = std::make_unique<Conn>();
  Conn& c = *conn;
  c.fd = fd;
  c.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  c.last_activity_ms = now;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c.id;
  if (::epoll_ctl(r.ep, EPOLL_CTL_ADD, fd, &ev) < 0) {
    log_warn("serve: epoll add failed: ", std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  c.armed = EPOLLIN;
  if (config_.idle_timeout_ms > 0) {
    r.wheel.schedule(c.id, now + static_cast<std::uint64_t>(config_.idle_timeout_ms));
  }
  Conn* ptr = conn.get();
  r.conns.emplace(c.id, std::move(conn));
  return ptr;
}

void EpollServer::close_conn(Reactor& r, Conn& c) {
  ::epoll_ctl(r.ep, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  // Pending wheel entries and in-flight completions for this id are lazily
  // discarded when they surface and miss the map.
  r.conns.erase(c.id);  // destroys c
}

void EpollServer::update_interest(Reactor& r, Conn& c) {
  std::uint32_t want = 0;
  const bool paused = c.draining ||
                      c.wq_bytes > config_.max_write_backlog_bytes / 2 ||
                      c.in_flight >= config_.max_in_flight_per_conn;
  if (!paused) want |= EPOLLIN;
  if (!c.wq.empty()) want |= EPOLLOUT;
  if (want == c.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = c.id;
  ::epoll_ctl(r.ep, EPOLL_CTL_MOD, c.fd, &ev);
  c.armed = want;
}

bool EpollServer::handle_readable(Reactor& r, Conn& c, std::uint64_t now) {
  for (;;) {
    if (c.draining) break;
    if (c.wq_bytes > config_.max_write_backlog_bytes / 2 ||
        c.in_flight >= config_.max_in_flight_per_conn) {
      // Backpressure: leave the rest in the kernel buffer; TCP flow control
      // pushes back on the peer.
      break;
    }
    const std::size_t old = c.rbuf.size();
    c.rbuf.resize(old + kReadChunk);
    const ssize_t got = ::recv(c.fd, c.rbuf.data() + old, kReadChunk, 0);
    if (got < 0) {
      c.rbuf.resize(old);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(r, c);
      return false;
    }
    if (got == 0) {
      c.rbuf.resize(old);
      // Peer finished sending (EOF / half-close).  Answer what was already
      // submitted, flush, then close.
      c.draining = true;
      if (c.in_flight == 0 && c.wq.empty() && c.ready.empty()) {
        close_conn(r, c);
        return false;
      }
      break;
    }
    c.rbuf.resize(old + static_cast<std::size_t>(got));
    c.last_activity_ms = now;
    if (!parse_frames(r, c, now)) return false;
    if (static_cast<std::size_t>(got) < kReadChunk) break;  // socket drained
  }
  update_interest(r, c);
  return true;
}

bool EpollServer::parse_frames(Reactor& r, Conn& c, std::uint64_t now) {
  const std::size_t input_dim = server_.engine().model().input_dim();
  for (;;) {
    const std::size_t avail = c.rbuf.size() - c.rpos;
    if (avail < 4) break;
    std::uint32_t len = 0;
    std::memcpy(&len, c.rbuf.data() + c.rpos, 4);
    if (len > kMaxPayloadBytes) {
      log_warn("serve: dropping connection: oversized frame");
      close_conn(r, c);
      return false;
    }
    if (avail < 4u + len) break;  // partial frame; next read continues it
    const std::span<const std::uint8_t> payload(c.rbuf.data() + c.rpos + 4, len);
    c.rpos += 4u + len;

    // Every frame takes a sequence number, including locally answered bad
    // requests — replies to a pipelining client stay in request order no
    // matter which path produced them.
    QueryRequest req;
    std::string reason;
    const Status parsed = decode_query(payload, req, &reason);
    const std::uint64_t seq = c.next_seq++;
    if (parsed != Status::Ok) {
      OutFrame out;
      out.bytes = frame_bytes(encode_error_reply(parsed, reason));
      c.ready.emplace(seq, std::move(out));
    } else if (!valid_feature_indices(req, input_dim)) {
      OutFrame out;
      out.bytes = frame_bytes(encode_error_reply(
          Status::BadRequest,
          "feature indices must be strictly increasing "
          "and below the model input dim"));
      c.ready.emplace(seq, std::move(out));
    } else {
      ++c.in_flight;
      submit_query(r, c, seq, req);
    }
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos > 0) {
    // Keep only the trailing partial frame.
    c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
    c.rpos = 0;
  }
  return flush_ready(r, c, now);
}

void EpollServer::submit_query(Reactor& r, Conn& c, std::uint64_t seq,
                               const QueryRequest& req) {
  const std::uint64_t conn_id = c.id;
  Reactor* rp = &r;
  const data::SparseVectorView view{req.indices.data(), req.values.data(),
                                    req.indices.size()};
  // The callback runs on an engine/dispatcher thread: it encodes the frame
  // there (keeping serialization off the reactor) and hands the bytes over
  // via the lock-free completion stack.  It captures the connection ID, not
  // the Conn — the connection may be gone by the time the reply lands.
  server_.submit_async(view, req.k, req.deadline_us, [rp, conn_id, seq](Reply&& reply) {
    auto* node = new Completion;
    node->conn_id = conn_id;
    node->seq = seq;
    auto& faults = util::FaultInjector::instance();
    if (faults.enabled()) {
      if (faults.should_fail(util::FaultPoint::SocketDrop)) {
        node->drop = true;
      } else {
        faults.maybe_delay(util::FaultPoint::SocketStall);
      }
    }
    if (!node->drop) {
      node->frame.bytes = frame_bytes(encode_reply_payload(reply));
      node->frame.encoded = std::chrono::steady_clock::now();
      node->frame.timing = reply.timing;
      node->frame.status = reply.status;
      node->frame.degraded = reply.degraded;
      node->frame.timed = reply.timing.stamped();
    }
    push_completion(*rp, node);
  });
}

void EpollServer::push_completion(Reactor& r, Completion* node) {
  Completion* head = r.completions.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!r.completions.compare_exchange_weak(head, node, std::memory_order_release,
                                                std::memory_order_relaxed));
  // Only the push that turned the stack non-empty needs to wake the
  // reactor; later pushes coalesce into the same drain pass.
  if (head == nullptr) r.wake.signal();
}

void EpollServer::process_completions(Reactor& r, std::uint64_t now) {
  Completion* node = r.completions.exchange(nullptr, std::memory_order_acquire);
  if (node == nullptr) return;
  // The Treiber stack pops LIFO; reverse to apply in push order (sequence
  // reordering would still be correct either way — this just keeps the
  // per-connection `ready` maps small).
  Completion* ordered = nullptr;
  while (node != nullptr) {
    Completion* next = node->next;
    node->next = ordered;
    ordered = node;
    node = next;
  }
  while (ordered != nullptr) {
    Completion* next = ordered->next;
    auto it = r.conns.find(ordered->conn_id);
    if (it != r.conns.end()) {
      Conn& c = *it->second;
      if (c.in_flight > 0) --c.in_flight;
      if (ordered->drop) {
        log_warn("serve: fault injection dropped a connection");
        close_conn(r, c);
      } else {
        c.ready.emplace(ordered->seq, std::move(ordered->frame));
        flush_ready(r, c, now);
      }
    }
    delete ordered;
    ordered = next;
  }
}

bool EpollServer::flush_ready(Reactor& r, Conn& c, std::uint64_t now) {
  while (!c.ready.empty() && c.ready.begin()->first == c.next_flush_seq) {
    OutFrame buf = std::move(c.ready.begin()->second);
    c.ready.erase(c.ready.begin());
    ++c.next_flush_seq;
    c.wq_bytes += buf.bytes.size();
    c.wq.push_back(std::move(buf));
  }
  if (c.wq_bytes > config_.max_write_backlog_bytes) {
    // The peer stopped reading while replies kept coming; cut it loose
    // before its backlog grows server memory without bound.
    overflow_closed_.inc();
    log_warn("serve: dropping connection: write backlog over cap");
    close_conn(r, c);
    return false;
  }
  return try_flush_writes(r, c, now);
}

bool EpollServer::try_flush_writes(Reactor& r, Conn& c, std::uint64_t now) {
  while (!c.wq.empty()) {
    const OutFrame& front = c.wq.front();
    const ssize_t put = ::send(c.fd, front.bytes.data() + c.wq_off,
                               front.bytes.size() - c.wq_off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // EPOLLOUT resumes
      close_conn(r, c);
      return false;
    }
    c.wq_off += static_cast<std::size_t>(put);
    c.wq_bytes -= static_cast<std::size_t>(put);
    c.last_activity_ms = now;
    if (c.wq_off == front.bytes.size()) {
      // The frame's last byte is in the kernel: close the trace here (write
      // stage includes the reactor handoff and any reorder wait).
      if (front.timed) {
        telemetry_.observe(front.timing, front.encoded,
                           std::chrono::steady_clock::now(), front.status,
                           front.degraded);
      }
      c.wq.pop_front();
      c.wq_off = 0;
    }
  }
  if (c.wq.empty() && c.draining && c.in_flight == 0 && c.ready.empty()) {
    close_conn(r, c);  // fully flushed; nothing more will ever arrive
    return false;
  }
  update_interest(r, c);
  return true;
}

void EpollServer::advance_timers(Reactor& r, std::uint64_t now) {
  if (r.wheel.empty()) return;
  r.expired_scratch.clear();
  r.wheel.advance(now, r.expired_scratch);
  for (const std::uint64_t id : r.expired_scratch) {
    if (id == kListenerTag) {
      // Accept-backoff over: re-arm the listener (unless we are draining).
      if (!listener_armed_ && !stopping_.load(std::memory_order_acquire)) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kListenerTag;
        if (::epoll_ctl(r.ep, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
          listener_armed_ = true;
        }
      }
      continue;
    }
    auto it = r.conns.find(id);
    if (it == r.conns.end()) continue;  // connection already gone: lazy cancel
    Conn& c = *it->second;
    const auto idle_ms = static_cast<std::uint64_t>(config_.idle_timeout_ms);
    if (c.in_flight > 0) {
      // The connection still owes the peer a reply: not idle.  Look again
      // one timeout from now; the reply's send moves the deadline anyway.
      r.wheel.schedule(id, now + idle_ms);
    } else if (now >= c.last_activity_ms + idle_ms) {
      idle_closed_.inc();
      log_info("serve: closing idle connection");
      close_conn(r, c);
    } else {
      // Activity moved the deadline since this entry was scheduled: migrate
      // the single wheel entry forward instead of rescheduling per frame.
      r.wheel.schedule(id, c.last_activity_ms + idle_ms);
    }
  }
}

}  // namespace slide::serve

#endif  // __linux__
