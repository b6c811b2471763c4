#include "serve/transport.h"

#include <cstdio>
#include <stdexcept>

#include "util/logging.h"
#ifdef __linux__
#include "serve/epoll_server.h"
#endif

namespace slide::serve {

namespace {
std::uint64_t stage_us(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us <= 0 ? 0 : static_cast<std::uint64_t>(us);
}
}  // namespace

WireTelemetry::WireTelemetry(obs::MetricsRegistry& metrics, std::uint32_t trace_sample)
    : encode_us_(metrics.histogram(
          "slide_request_stage_us",
          "Per-request stage latency in microseconds, by stage",
          {{"stage", "encode"}})),
      write_us_(metrics.histogram(
          "slide_request_stage_us",
          "Per-request stage latency in microseconds, by stage",
          {{"stage", "write"}})),
      e2e_us_(metrics.histogram(
          "slide_request_e2e_us",
          "End-to-end request latency (admission to last byte written), microseconds")),
      sampler_(trace_sample) {}

void WireTelemetry::observe(const RequestTiming& timing,
                            std::chrono::steady_clock::time_point encoded,
                            std::chrono::steady_clock::time_point written,
                            RequestStatus status, bool degraded) {
  if (!timing.stamped()) return;
  const std::uint64_t queue_us = stage_us(timing.admitted, timing.formed);
  const std::uint64_t infer_us = stage_us(timing.formed, timing.inferred);
  const std::uint64_t encode_us = stage_us(timing.inferred, encoded);
  const std::uint64_t write_us = stage_us(encoded, written);
  encode_us_.record(encode_us);
  write_us_.record(write_us);
  e2e_us_.record(stage_us(timing.admitted, written));
  if (sampler_.should_sample()) {
    log_info("trace: status=", request_status_name(status),
             " degraded=", degraded ? 1 : 0, " queue_us=", queue_us,
             " infer_us=", infer_us, " encode_us=", encode_us,
             " write_us=", write_us,
             " total_us=", stage_us(timing.admitted, written));
  }
}

std::string format_server_stats(const ServerStats& stats,
                                const TransportStats* tstats) {
  char buf[512];
  std::string out;
  std::snprintf(
      buf, sizeof(buf),
      "served %llu queries in %llu batches (avg batch %.1f), rejected %llu, "
      "shed %llu, expired %llu, degraded %llu, errors %llu",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.batches), stats.avg_batch_size,
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.errors));
  out += buf;
  if (tstats != nullptr) {
    std::snprintf(buf, sizeof(buf), ", connections %llu",
                  static_cast<unsigned long long>(tstats->connections_accepted));
    out += buf;
    out += '\n';
    std::snprintf(
        buf, sizeof(buf),
        "transport: idle-closed %llu, accept-backoffs %llu, overflow-closed %llu",
        static_cast<unsigned long long>(tstats->idle_closed),
        static_cast<unsigned long long>(tstats->accept_backoffs),
        static_cast<unsigned long long>(tstats->overflow_closed));
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf),
                "latency us: p50=%llu p95=%llu p99=%llu max=%llu (queue p50=%llu)",
                static_cast<unsigned long long>(stats.total_us.p50()),
                static_cast<unsigned long long>(stats.total_us.p95()),
                static_cast<unsigned long long>(stats.total_us.p99()),
                static_cast<unsigned long long>(stats.total_us.max),
                static_cast<unsigned long long>(stats.queue_us.p50()));
  out += buf;
  out += '\n';
  return out;
}

std::unique_ptr<ServerTransport> make_transport(TransportKind /*kind*/,
                                                BatchingServer& server,
                                                TransportConfig config) {
#ifdef __linux__
  return std::make_unique<EpollServer>(server, std::move(config));
#else
  (void)server;
  (void)config;
  throw std::runtime_error("the TCP front end needs Linux (epoll)");
#endif
}

std::vector<std::uint8_t> encode_reply_payload(const Reply& reply) {
  switch (reply.status) {
    case RequestStatus::Ok:
      return encode_reply(reply.ids, reply.scores, reply.degraded);
    case RequestStatus::Rejected:
      return encode_error_reply(Status::Overloaded, "queue full, retry later");
    case RequestStatus::ShuttingDown:
      return encode_error_reply(Status::ShuttingDown, "server is draining");
    case RequestStatus::DeadlineExceeded:
      return encode_error_reply(Status::DeadlineExceeded,
                                "deadline expired before dispatch");
    case RequestStatus::Error:
      return encode_error_reply(Status::InternalError, "engine failure");
  }
  return encode_error_reply(Status::InternalError, "unknown status");
}

bool valid_feature_indices(const QueryRequest& req, std::size_t input_dim) {
  for (std::size_t i = 0; i < req.indices.size(); ++i) {
    if (req.indices[i] >= input_dim) return false;
    if (i > 0 && req.indices[i] <= req.indices[i - 1]) return false;
  }
  return true;
}

}  // namespace slide::serve
