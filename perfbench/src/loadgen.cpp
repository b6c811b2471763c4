#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "report.h"
#include "serve/net.h"
#include "util/rng.h"

namespace perfbench {

using namespace slide;

namespace {

constexpr int kIoTimeoutMs = 5000;
constexpr double kReplyTimeoutS = 5.0;

struct Arrival {
  Clock::time_point at;
  std::uint32_t query;
};

struct InFlight {
  std::uint32_t query;
  Clock::time_point scheduled;
  Clock::time_point sent;
};

// One connection's shared sender/receiver state for a window.
struct Conn {
  int fd = -1;
  std::vector<Arrival> schedule;
  std::mutex mutex;
  std::deque<InFlight> in_flight;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> sender_done{false};
  LoadResult part;
};

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Cumulative (steal, total) jiffies over all CPUs from /proc/stat; zeros
// where unavailable.
std::pair<double, double> cpu_steal_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n < 8) return {0.0, 0.0};
  double total = 0.0;
  for (const auto x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

}  // namespace

double LoadResult::robust_p99() const {
  const std::size_t k = std::clamp<std::size_t>(latency_us.size() / 1000, 1, 10);
  const double span = seconds > 0 ? seconds : 1.0;
  std::vector<std::vector<double>> parts(k);
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    const double pos = std::clamp(sched_s[i] / span * static_cast<double>(k), 0.0,
                                  static_cast<double>(k - 1));
    parts[static_cast<std::size_t>(pos)].push_back(latency_us[i]);
  }
  std::vector<double> p99s;
  for (const auto& part : parts) {
    if (!part.empty()) p99s.push_back(quantile(part, 0.99));
  }
  return median(p99s);
}

void LoadResult::merge(const LoadResult& o) {
  rate = o.rate;
  sent += o.sent;
  ok += o.ok;
  degraded += o.degraded;
  failed += o.failed;
  wrong += o.wrong;
  backlog_at_end += o.backlog_at_end;
  aborted = aborted || o.aborted;
  for (const double t : o.sched_s) sched_s.push_back(seconds + t);
  latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
  rtt_us.insert(rtt_us.end(), o.rtt_us.begin(), o.rtt_us.end());
  late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
  recall_sum += o.recall_sum;
  recall_n += o.recall_n;
  // Time-weighted, so a merged window reports its overall steal share.
  const double total_s = seconds + o.seconds;
  steal_frac = total_s > 0 ? (steal_frac * seconds + o.steal_frac * o.seconds) / total_s : 0.0;
  seconds += o.seconds;
}

LoadGen::LoadGen(std::uint16_t port, unsigned connections,
                 std::vector<std::vector<std::uint8_t>> frames, ReplyCheck check)
    : check_(std::move(check)) {
  for (unsigned c = 0; c < connections; ++c) {
    const int fd = serve::net::connect_with_timeout("127.0.0.1", port, kIoTimeoutMs);
    serve::net::enable_nodelay(fd);
    fds_.push_back(fd);
  }
  frames_.reserve(frames.size());
  for (const auto& payload : frames) {
    std::vector<std::uint8_t> frame(4 + payload.size());
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::memcpy(frame.data(), &len, 4);
    std::memcpy(frame.data() + 4, payload.data(), payload.size());
    frames_.push_back(std::move(frame));
  }
}

LoadGen::~LoadGen() {
  for (const int fd : fds_) ::close(fd);
}

LoadResult LoadGen::run(double rate, double seconds, std::uint64_t seed,
                        double abort_late_s) {
  const std::size_t nconn = fds_.size();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const auto abort_late = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(abort_late_s));

  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < nconn; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fds_[c];
    Rng rng(mix64(seed, c, 0x10AD));
    const double mean_gap_s = static_cast<double>(nconn) / rate;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform_double()) * mean_gap_s;
      if (t >= seconds) break;
      const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(t));
      conn->schedule.push_back(
          Arrival{at, static_cast<std::uint32_t>(rng.uniform_u64(frames_.size()))});
    }
    conns.push_back(std::move(conn));
  }

  const auto sender = [&](Conn& c) {
    // Wake-ups as close to the schedule as the kernel allows (the default
    // 50 us timer slack would show up as sender lateness).
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<std::uint8_t> buf;
    std::size_t i = 0;
    while (i < c.schedule.size()) {
      const auto now = Clock::now();
      if (c.schedule[i].at > now) {
        std::this_thread::sleep_until(c.schedule[i].at);
        continue;
      }
      if (now - c.schedule[i].at > abort_late) {
        c.part.aborted = true;
        break;
      }
      buf.clear();
      std::uint64_t batch = 0;
      {
        std::lock_guard<std::mutex> lock(c.mutex);
        for (; i < c.schedule.size() && c.schedule[i].at <= now; ++i, ++batch) {
          const Arrival& a = c.schedule[i];
          c.in_flight.push_back(InFlight{a.query, a.at, now});
          const auto& f = frames_[a.query];
          buf.insert(buf.end(), f.begin(), f.end());
          c.part.late_us.push_back(micros(a.at, now));
        }
      }
      c.sent.fetch_add(batch, std::memory_order_release);
      if (serve::net::write_full(c.fd, buf.data(), buf.size(), kIoTimeoutMs) !=
          serve::net::IoResult::Ok) {
        c.part.aborted = true;
        break;
      }
    }
    c.part.backlog_at_end = c.sent.load() - c.received.load();
    c.sender_done.store(true, std::memory_order_release);
  };

  // Buffered receive: one read can carry many replies; every complete
  // frame in the buffer is handled with the time the read returned.
  const auto receiver = [&](Conn& c) {
    std::vector<std::uint8_t> buf(1u << 16);
    std::size_t have = 0;
    serve::QueryReply reply;
    Clock::time_point done_at{};
    Clock::time_point read_at = Clock::now();
    bool broken = false;
    for (;;) {
      std::size_t pos = 0;
      while (have - pos >= 4) {
        std::uint32_t len = 0;
        std::memcpy(&len, buf.data() + pos, 4);
        if (len > serve::kMaxPayloadBytes) {
          broken = true;
          break;
        }
        if (have - pos - 4 < len) {
          if (4 + std::size_t{len} > buf.size()) buf.resize(4 + std::size_t{len});
          break;
        }
        InFlight req;
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          if (c.in_flight.empty()) {  // a reply nobody asked for: the stream is broken
            broken = true;
            break;
          }
          req = c.in_flight.front();
          c.in_flight.pop_front();
        }
        c.received.fetch_add(1);
        LoadResult& p = c.part;
        const std::span<const std::uint8_t> payload(buf.data() + pos + 4, len);
        pos += 4 + std::size_t{len};
        if (!serve::decode_reply(payload, reply) || reply.status != serve::Status::Ok) {
          ++p.failed;
          continue;
        }
        double recall = 0.0;
        if (!check_(req.query, reply, recall)) {
          ++p.failed;
          ++p.wrong;
          continue;
        }
        ++p.ok;
        if (reply.degraded) ++p.degraded;
        p.recall_sum += recall;
        ++p.recall_n;
        p.latency_us.push_back(micros(req.scheduled, read_at));
        p.sched_s.push_back(seconds_between(start, req.scheduled));
        p.rtt_us.push_back(micros(req.sent, read_at));
      }
      std::memmove(buf.data(), buf.data() + pos, have - pos);
      have -= pos;
      if (broken) break;

      const bool done = c.sender_done.load(std::memory_order_acquire);
      if (done && c.received.load() == c.sent.load(std::memory_order_acquire)) break;
      if (done && done_at == Clock::time_point{}) done_at = Clock::now();
      if (done && seconds_between(done_at, Clock::now()) > kReplyTimeoutS) break;
      // Wait even with nothing in flight: a reply can only follow a send,
      // and the timeout bounds how stale the exit check gets.
      const serve::net::IoResult ready = serve::net::wait_ready(c.fd, POLLIN, 20);
      if (ready == serve::net::IoResult::Timeout) continue;
      if (ready != serve::net::IoResult::Ok) break;
      const ssize_t n = ::read(c.fd, buf.data() + have, buf.size() - have);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) break;
      read_at = Clock::now();
      have += static_cast<std::size_t>(n);
    }
  };

  const auto steal_before = cpu_steal_total();
  std::vector<std::thread> threads;
  for (auto& c : conns) {
    threads.emplace_back(sender, std::ref(*c));
    threads.emplace_back(receiver, std::ref(*c));
  }
  for (auto& t : threads) t.join();

  LoadResult out;
  out.rate = rate;
  for (auto& c : conns) {
    LoadResult& p = c->part;
    p.rate = rate;
    p.seconds = 0.0;  // windows of one run share the timeline
    p.sent = c->sent.load();
    // Requests sent but never answered (timeout or broken connection).
    p.failed += c->sent.load() - c->received.load();
    out.merge(p);
  }
  out.seconds = std::chrono::duration<double>(window).count();
  const auto steal_after = cpu_steal_total();
  const double total = steal_after.second - steal_before.second;
  out.steal_frac = total > 0 ? (steal_after.first - steal_before.first) / total : 0.0;
  return out;
}

}  // namespace perfbench
