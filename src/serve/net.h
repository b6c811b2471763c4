// Shared socket plumbing: EINTR-safe full-buffer I/O with poll-bounded
// timeouts, length-prefixed frame read/write for blocking callers, listener
// setup, and a timeout-bounded connect.  TcpClient, the /metrics listener
// (obs/metrics_http.cpp) and the repo benchmark's load generator use the
// blocking helpers; the epoll front end uses the listener/socket helpers
// but does its own non-blocking frame assembly (its partial-read state
// lives in per-connection state machines, not on a call stack).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace slide::serve::net {

enum class IoResult { Ok, Eof, Timeout, Error };

// Waits (EINTR-safe) until `fd` is ready for `events` (poll(2) semantics).
// timeout_ms <= 0 blocks forever.  Ok / Timeout / Error.
IoResult wait_ready(int fd, short events, int timeout_ms);

// EINTR-safe full-buffer read.  timeout_ms > 0 bounds the wait for EACH
// chunk via poll (so the overall call finishes unless the peer keeps
// trickling bytes); EAGAIN from a socket-level receive timeout maps to
// Timeout as well.
IoResult read_full(int fd, void* buf, std::size_t n, int timeout_ms = 0);
IoResult write_full(int fd, const void* buf, std::size_t n, int timeout_ms = 0);

// One length-prefixed frame (4-byte LE length + payload), blocking style.
bool write_frame(int fd, const std::vector<std::uint8_t>& payload, int timeout_ms = 0);
// Reads one frame.  Eof = clean close before a header; Timeout = the peer
// went idle (or stalled mid-frame); oversized frames throw to kill the
// connection (the peer is not speaking our protocol).
IoResult read_frame(int fd, std::vector<std::uint8_t>& payload, int timeout_ms = 0);

[[noreturn]] void throw_errno(const std::string& what);

void enable_nodelay(int fd);
bool set_nonblocking(int fd, bool nonblocking);

// Creates, binds, and listens a TCP socket (throws std::runtime_error on
// failure).  `port` 0 binds an ephemeral port; *bound_port receives the
// resolved one either way.
int create_listener(const std::string& bind_address, std::uint16_t port, int backlog,
                    std::uint16_t* bound_port);

// Non-blocking connect with a poll-bounded wait, restored to blocking mode
// on success.  Returns the connected fd; throws on failure/timeout.
int connect_with_timeout(const std::string& host, std::uint16_t port, int timeout_ms);

}  // namespace slide::serve::net
