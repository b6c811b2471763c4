#include "serve/tcp_client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "serve/net.h"

namespace slide::serve {

using net::IoResult;

TcpClient::TcpClient(const std::string& host, std::uint16_t port,
                     TcpClientConfig config)
    : host_(host),
      port_(port),
      config_(config),
      // Jitter seed: cheap entropy from the clock + this object's address;
      // retry jitter only has to decorrelate concurrent clients.
      rng_(static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count()) ^
           reinterpret_cast<std::uintptr_t>(this) ^ 0x9E3779B97F4A7C15ull) {
  fd_ = net::connect_with_timeout(host_, port_, config_.connect_timeout_ms);
}

TcpClient::~TcpClient() { close(); }

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpClient::reconnect() {
  close();
  try {
    fd_ = net::connect_with_timeout(host_, port_, config_.connect_timeout_ms);
  } catch (const std::exception&) {
    return false;
  }
  ++reconnects_;
  return true;
}

bool TcpClient::query(data::SparseVectorView x, std::uint32_t k, QueryReply& reply,
                      std::uint64_t deadline_us) {
  return round_trip_raw(
      encode_query({x.indices, x.nnz}, {x.values, x.nnz}, k, deadline_us), reply);
}

bool TcpClient::query_with_retry(data::SparseVectorView x, std::uint32_t k,
                                 QueryReply& reply, std::uint64_t deadline_us) {
  const int attempts = 1 + std::max(0, config_.max_retries);
  int backoff_ms = std::max(1, config_.backoff_initial_ms);
  bool got_reply = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with jitter: uniform in [backoff/2, backoff],
      // so synchronized clients don't re-stampede an overloaded server.
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const int base = backoff_ms / 2;
      const int sleep_ms =
          base + static_cast<int>(rng_ % static_cast<std::uint64_t>(
                                             std::max(1, backoff_ms - base + 1)));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_ms = std::min(backoff_ms * 2, std::max(1, config_.backoff_max_ms));
    }
    if (!connected() && !reconnect()) continue;  // server may still be coming back
    if (!query(x, k, reply, deadline_us)) {
      // Transport failure (reset, timeout, bad frame): half-open; the next
      // attempt reconnects.
      close();
      continue;
    }
    got_reply = true;
    if (!status_is_retryable(reply.status)) return true;
  }
  // Either every attempt died at the transport level (false) or the last
  // decoded reply was still retryable — hand that status to the caller.
  return got_reply;
}

bool TcpClient::round_trip_raw(const std::vector<std::uint8_t>& payload,
                               QueryReply& reply) {
  if (fd_ < 0 || !net::write_frame(fd_, payload, config_.io_timeout_ms)) return false;
  std::vector<std::uint8_t> in;
  try {
    if (net::read_frame(fd_, in, config_.io_timeout_ms) != IoResult::Ok) return false;
  } catch (const std::exception&) {
    return false;
  }
  return decode_reply(in, reply);
}

}  // namespace slide::serve
