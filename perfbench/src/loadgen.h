// Open-loop load generator over the wire protocol (serve/protocol.h framing
// on blocking loopback sockets, serve/net.h I/O).
//
// Arrivals follow a Poisson process at a fixed rate, split evenly over the
// connections (the sum of independent Poisson streams is Poisson).  Each
// connection has one sender thread, which writes every frame that is due
// (pipelining, several frames per write when it runs late), and one receiver
// thread, which reads the in-order replies.  Every request is timed from its
// scheduled send time, so a stall is charged to every request it delays;
// how late the sender ran is reported separately.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

// Judges one Ok reply for query `q`: returns false for a wrong answer.
// `recall` receives the reply's quality score in [0, 1].
using ReplyCheck = std::function<bool(std::size_t q, const slide::serve::QueryReply& reply,
                                      double& recall)>;

struct LoadResult {
  double rate = 0.0;           // offered arrivals per second
  double seconds = 0.0;        // scheduled window
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;        // Ok and judged correct
  std::uint64_t degraded = 0;  // Ok but served through the sampled path under load
  std::uint64_t failed = 0;    // every non-Ok outcome, wrong answers, transport failures
  std::uint64_t wrong = 0;
  std::uint64_t backlog_at_end = 0;  // requests in flight when the schedule ended
  bool aborted = false;              // the sender fell too far behind and stopped
  std::vector<double> latency_us;    // scheduled send -> reply read (answered only)
  std::vector<double> sched_s;       // scheduled send, seconds into the window (same order)
  std::vector<double> rtt_us;        // actual send -> reply read
  std::vector<double> late_us;       // actual send - scheduled send
  double recall_sum = 0.0;
  std::uint64_t recall_n = 0;
  double steal_frac = 0.0;  // share of CPU time the hypervisor stole (0 off a VM)

  // p99 of latency_us taken per sub-window of the schedule (about 1000
  // answers each, at most 10) and reduced by the median, so one host stall
  // moves one sub-window's p99 rather than the whole window's.
  double robust_p99() const;

  // Appends a later window: counts add up, samples concatenate, and the
  // other window's schedule continues this one's timeline.
  void merge(const LoadResult& o);

  double fail_ratio() const {
    return sent == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(sent);
  }
};

class LoadGen {
 public:
  // `frames` holds one encoded request payload per query in the pool.
  LoadGen(std::uint16_t port, unsigned connections,
          std::vector<std::vector<std::uint8_t>> frames, ReplyCheck check);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Runs one open-loop window; blocks until every sent request is answered
  // or the reply timeout passes (unanswered requests count as failed).
  // The sender gives up when it runs more than `abort_late_s` behind.
  LoadResult run(double rate, double seconds, std::uint64_t seed, double abort_late_s);

 private:
  std::vector<int> fds_;
  std::vector<std::vector<std::uint8_t>> frames_;  // length-prefixed wire frames
  ReplyCheck check_;
};

}  // namespace perfbench
