// Closed-loop serving load generator: QPS and tail latency for the
// micro-batching server.
//
//   ./bench_serving_latency                 # in-process sweep (default)
//   ./bench_serving_latency --chaos         # fault-injection run (see below)
//   ./bench_serving_latency --connections   # connection fan-in sweep (see below)
//   ./bench_serving_latency --metrics-overhead  # telemetry on/off A/B cell
//   SLIDE_SERVE_CONNECT=127.0.0.1:7070 \
//   SLIDE_SERVE_QUERIES_FILE=q.test.txt \
//   ./bench_serving_latency                 # TCP loadgen against slide_cli serve
//
// In-process mode trains one scaled Amazon-670K-like workload, freezes it
// at fp32, bf16, and int8, and sweeps the serving grid the paper's story leads to:
//
//   {1..N client threads} x {direct, batch=1, batched} x {dense, sampled}
//                         x {fp32, bf16, int8}
//
// Each client thread runs closed-loop: submit one query, block on its
// future (or the engine call), record the latency, repeat.  `direct` calls
// InferenceEngine::predict_topk with no server at all (the baseline);
// `batch=1` routes through the BatchingServer with max_batch_size=1
// (per-request dispatch, paying the queue); `batched` lets each batch take
// up to SLIDE_SERVE_BATCH_MAX of the requests that queued while the last
// one ran.  Every row reports QPS plus p50/p95/p99 from util/histogram.h.
//
// TCP mode skips training: it reads queries from SLIDE_SERVE_QUERIES_FILE
// (XC format, matching the served model), opens one connection per client
// thread, fires SLIDE_BENCH_QUERIES total round trips, and prints one row.
// CI uses it as the loopback smoke test against `slide_cli serve`.
//
// --chaos runs one deliberately hostile cell instead of the sweep: a small
// queue, tight request deadlines, and armed fault-injection points
// (engine delays/failures, admission failures).  The report shows QPS and
// tail latency of the successful requests ALONGSIDE the shed / expired /
// degraded / error counts, so the overload machinery's cost is visible
// rather than averaged away.  Override the fault spec with SLIDE_FAULTS.
//
// --connections is the high-fan-in sweep of the epoll front end: it parks a
// crowd of 0, 1024 and 4096 idle connections, drives a small active subset
// closed-loop through TcpClients, and reports QPS, p50/p95/p99, process
// RSS, and the marginal RSS per idle connection.  Idle counts are clamped
// to RLIMIT_NOFILE (the soft limit is raised to the hard limit first) and
// to SLIDE_BENCH_IDLE_CONNS.
//
// Env knobs: SLIDE_BENCH_SCALE, SLIDE_BENCH_EPOCHS, SLIDE_BENCH_QUERIES
// (total per grid cell, default 2000), SLIDE_BENCH_CLIENTS (max client
// threads, default 8), SLIDE_SERVE_BATCH_MAX, SLIDE_BENCH_DEADLINE_US
// (chaos deadline budget, default 20000), SLIDE_BENCH_IDLE_CONNS
// (--connections idle-crowd cap, default 4096).
#include "bench_common.h"

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/svm_reader.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "obs/metrics.h"
#include "serve/batching_server.h"
#include "serve/tcp_client.h"
#include "serve/transport.h"
#include "util/fault_injection.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using namespace slide;

enum class Dispatch { Direct, PerRequest, Batched };

const char* dispatch_name(Dispatch d) {
  switch (d) {
    case Dispatch::Direct: return "direct";
    case Dispatch::PerRequest: return "batch=1";
    case Dispatch::Batched: return "batched";
  }
  return "?";
}

struct RunResult {
  double qps = 0.0;
  util::HistogramSnapshot latency_us;
  double avg_batch = 0.0;
};

// Closed loop: `clients` threads share `total` queries round-robin, each
// blocking on its own request before issuing the next.
RunResult run_cell(infer::InferenceEngine& engine, Dispatch dispatch,
                   infer::TopKMode mode, std::span<const data::SparseVectorView> queries,
                   std::size_t total, unsigned clients, std::size_t batch_max,
                   obs::MetricsRegistry* metrics = nullptr) {
  constexpr std::uint32_t kTopK = 5;
  util::ShardedHistogram hist;

  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = dispatch == Dispatch::Batched ? batch_max : 1;
  scfg.queue_capacity = 4096;
  scfg.admission = serve::Admission::Block;
  scfg.k = kTopK;
  scfg.mode = mode;
  scfg.metrics = metrics;
  std::unique_ptr<serve::BatchingServer> server;
  if (dispatch != Dispatch::Direct) {
    server = std::make_unique<serve::BatchingServer>(engine, scfg);
  }

  std::atomic<std::size_t> next{0};
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<std::uint32_t> ids;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const data::SparseVectorView& q = queries[i % queries.size()];
        Timer t;
        if (server != nullptr) {
          const serve::Reply r = server->submit(q, kTopK).get();
          if (r.status != serve::RequestStatus::Ok) return;  // shouldn't happen
        } else {
          engine.predict_topk(q, kTopK, ids, mode);
        }
        hist.record(static_cast<std::uint64_t>(t.seconds() * 1e6));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.seconds();

  RunResult r;
  r.qps = static_cast<double>(total) / seconds;
  if (server != nullptr) {
    server->drain();
    r.avg_batch = server->stats().avg_batch_size;
  }
  r.latency_us = hist.snapshot();
  return r;
}

void print_row(const char* prec, const char* mode, Dispatch dispatch, unsigned clients,
               const RunResult& r) {
  std::printf("%-6s %-8s %-9s %7u %10.0f %8llu %8llu %8llu %9.1f\n", prec, mode,
              dispatch_name(dispatch), clients, r.qps,
              static_cast<unsigned long long>(r.latency_us.p50()),
              static_cast<unsigned long long>(r.latency_us.p95()),
              static_cast<unsigned long long>(r.latency_us.p99()), r.avg_batch);
}

int run_tcp_loadgen(const std::string& connect, const std::string& queries_file,
                    std::size_t total, unsigned clients) {
  const auto colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "SLIDE_SERVE_CONNECT must be host:port\n");
    return 1;
  }
  const std::string host = connect.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(std::atoi(connect.c_str() + colon + 1));
  const data::Dataset queries = data::read_xc_file(queries_file);

  std::printf("tcp loadgen: %s, %zu queries over %u connections\n", connect.c_str(),
              total, clients);
  // Outcomes get separate distributions: a deadline-shed reply returns in
  // microseconds and an Ok reply in milliseconds — one merged histogram
  // would let fast failures fake a good tail.
  util::ShardedHistogram ok_hist, degraded_hist, error_hist;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  Timer wall;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      try {
        serve::TcpClient client(host, port);
        serve::QueryReply reply;
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= total) return;
          Timer t;
          // The retry path reconnects through dropped/stalled connections,
          // so a fault-armed server still yields a clean loadgen run.
          if (!client.query_with_retry(queries.features(i % queries.size()), 5, reply)) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const auto us = static_cast<std::uint64_t>(t.seconds() * 1e6);
          if (reply.status != serve::Status::Ok) {
            error_hist.record(us);
          } else if (reply.degraded) {
            degraded_hist.record(us);
          } else {
            ok_hist.record(us);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client: %s\n", e.what());
        failures.fetch_add(total, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.seconds();

  const auto print_outcome = [](const char* name, const util::HistogramSnapshot& s) {
    if (s.count == 0) {
      std::printf("  %-9s %8llu\n", name, 0ull);
      return;
    }
    std::printf("  %-9s %8llu  latency us: p50=%llu p95=%llu p99=%llu\n", name,
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.p50()),
                static_cast<unsigned long long>(s.p95()),
                static_cast<unsigned long long>(s.p99()));
  };
  const util::HistogramSnapshot ok = ok_hist.snapshot();
  const util::HistogramSnapshot degraded = degraded_hist.snapshot();
  const util::HistogramSnapshot error = error_hist.snapshot();
  const std::uint64_t answered = ok.count + degraded.count + error.count;
  std::printf("answered=%llu failed=%zu  %.0f QPS\n",
              static_cast<unsigned long long>(answered), failures.load(),
              static_cast<double>(answered) / seconds);
  print_outcome("ok", ok);
  print_outcome("degraded", degraded);
  print_outcome("error", error);
  return failures.load() == 0 && ok.count + degraded.count > 0 ? 0 : 1;
}

// --- --metrics-overhead: live registry vs no-op registry, same cell ----------
//
// The ISSUE-10 acceptance bar: counters + stage histograms on the hot path
// must cost < 1% QPS.  Runs kPairs off/on pairs of one cell, alternating
// which arm goes first so clock drift and warm-up land on both arms, and
// judges the median of the per-pair overheads: a cell lasts milliseconds,
// so one noisy cell moves a mean of a few pairs but not the median.
int run_metrics_overhead(infer::InferenceEngine& engine,
                         std::span<const data::SparseVectorView> queries,
                         std::size_t total, unsigned clients, std::size_t batch_max) {
  obs::MetricsRegistry disabled(false);
  obs::MetricsRegistry enabled(true);
  constexpr std::size_t kPairs = 41;

  std::printf("metrics overhead: %zu queries/cell, %u clients, batch-max=%zu, "
              "%zu off/on pairs, alternating which arm runs first\n",
              total, clients, batch_max, kPairs);
  const auto qps = [&](obs::MetricsRegistry* metrics) {
    return run_cell(engine, Dispatch::Batched, infer::TopKMode::Dense, queries, total, clients,
                    batch_max, metrics)
        .qps;
  };

  // Warm both arms once (thread pool spin-up, page faults).
  qps(&disabled);
  qps(&enabled);

  std::vector<double> overhead;  // per pair, percent of the off arm's QPS
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double off, on;
    if (pair % 2 == 0) {
      off = qps(&disabled);
      on = qps(&enabled);
    } else {
      on = qps(&enabled);
      off = qps(&disabled);
    }
    overhead.push_back(off > 0.0 ? 100.0 * (1.0 - on / off) : 0.0);
  }
  std::sort(overhead.begin(), overhead.end());
  const auto quartile = [&](std::size_t q) { return overhead[q * (kPairs - 1) / 4]; };
  const double median = quartile(2);
  std::printf("overhead per pair: median %+.2f%% [q1 %+.2f%%, q3 %+.2f%%] (target < 1%%)\n",
              median, quartile(1), quartile(3));
  // Pass/fail is advisory only when the delta is within run-to-run noise;
  // a hard gate would flake on loaded CI machines, so the exit code only
  // trips on an egregious regression.
  return median < 5.0 ? 0 : 1;
}

// --- --connections: idle fan-in vs tail latency ------------------------------

std::size_t rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// Raises the fd soft limit to the hard limit and returns the result: both
// ends of every idle connection live in this process, so the sweep eats two
// fds per parked peer.
std::size_t raise_nofile_limit() {
  struct rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return rl.rlim_cur == RLIM_INFINITY ? std::size_t{1} << 20
                                      : static_cast<std::size_t>(rl.rlim_cur);
}

int idle_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
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

int run_connection_sweep(infer::InferenceEngine& engine,
                         std::span<const data::SparseVectorView> queries,
                         std::size_t total, unsigned active) {
  const std::size_t fd_limit = raise_nofile_limit();
  const std::size_t idle_cap = std::min(
      bench::env_size("SLIDE_BENCH_IDLE_CONNS", 4096),
      fd_limit > active * 2 + 256 ? (fd_limit - active * 2 - 256) / 2 : 0);

  std::printf("connections sweep: %zu queries per cell, %u active clients, "
              "idle cap %zu (fd limit %zu)\n",
              total, active, idle_cap, fd_limit);
  std::printf("%6s %7s %10s %8s %8s %8s %9s %12s\n", "idle", "active", "QPS", "p50us",
              "p95us", "p99us", "rss_mb", "kb/idleconn");
  bench::print_rule(74);

  int rc = 0;
  const std::size_t base_rss = rss_kb();
  for (const std::size_t idle_target :
       {std::size_t{0}, std::size_t{1024}, std::size_t{4096}}) {
    const std::size_t idle = std::min(idle_target, idle_cap);
    if (idle < idle_target && idle_target != 0) continue;  // over the fd budget

    serve::ServerConfig scfg;
    scfg.policy.max_batch_size = bench::env_size("SLIDE_SERVE_BATCH_MAX", 64);
    scfg.queue_capacity = 4096;
    scfg.admission = serve::Admission::Reject;
    scfg.k = 5;
    scfg.mode = infer::TopKMode::Dense;
    serve::BatchingServer server(engine, scfg);
    auto tcp = serve::make_transport(serve::TransportKind::Epoll, server, {});
    tcp->start();

    std::vector<int> parked;
    parked.reserve(idle);
    while (parked.size() < idle) {
      const int fd = idle_connect(tcp->port());
      if (fd < 0) break;  // fd budget exhausted; report what we got
      parked.push_back(fd);
    }

    util::ShardedHistogram hist;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};
    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(active);
    for (unsigned c = 0; c < active; ++c) {
      threads.emplace_back([&] {
        try {
          serve::TcpClient client("127.0.0.1", tcp->port());
          serve::QueryReply reply;
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total) return;
            Timer t;
            if (!client.query_with_retry(queries[i % queries.size()], 5, reply) ||
                reply.status != serve::Status::Ok) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            hist.record(static_cast<std::uint64_t>(t.seconds() * 1e6));
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client: %s\n", e.what());
          failures.fetch_add(total, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double seconds = wall.seconds();
    const std::size_t peak_rss = rss_kb();

    const util::HistogramSnapshot s = hist.snapshot();
    const double per_conn_kb =
        parked.empty() ? 0.0
                       : static_cast<double>(peak_rss > base_rss ? peak_rss - base_rss : 0) /
                             static_cast<double>(parked.size());
    std::printf("%6zu %7u %10.0f %8llu %8llu %8llu %9.1f %12.1f\n", parked.size(), active,
                static_cast<double>(s.count) / seconds,
                static_cast<unsigned long long>(s.p50()),
                static_cast<unsigned long long>(s.p95()),
                static_cast<unsigned long long>(s.p99()),
                static_cast<double>(peak_rss) / 1024.0, per_conn_kb);
    if (failures.load() != 0 || s.count == 0) rc = 1;
    if (parked.size() < idle) {
      std::printf("  (idle crowd clamped from %zu: out of fds)\n", idle);
    }

    for (const int fd : parked) ::close(fd);
    tcp->stop();
  }
  bench::print_rule(74);
  return rc;
}

// One hostile cell: small queue + deadlines + armed faults.  Reports the
// client-observed outcome mix next to the latency of what succeeded.
int run_chaos(infer::InferenceEngine& engine,
              std::span<const data::SparseVectorView> queries, std::size_t total,
              unsigned clients, std::uint64_t deadline_us) {
  auto& faults = util::FaultInjector::instance();
  if (std::getenv("SLIDE_FAULTS") == nullptr) {
    std::string error;
    if (!faults.configure(
            "engine-delay=0.05:2000,engine-fail=0.02,admission-fail=0.01", &error)) {
      std::fprintf(stderr, "chaos: bad default fault spec: %s\n", error.c_str());
      return 1;
    }
  }

  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = bench::env_size("SLIDE_SERVE_BATCH_MAX", 32);
  scfg.queue_capacity = 64;  // small on purpose: pressure should actually trip
  scfg.admission = serve::Admission::Reject;
  scfg.k = 5;
  scfg.mode = infer::TopKMode::Dense;
  scfg.pressure.degrade_fill = 0.5;
  serve::BatchingServer server(engine, scfg);

  std::printf("chaos: %zu queries over %u clients, deadline %llu us, queue cap %zu\n",
              total, clients, static_cast<unsigned long long>(deadline_us),
              scfg.queue_capacity);

  util::ShardedHistogram hist;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> ok{0}, degraded{0}, rejected{0}, expired{0}, errors{0};
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const data::SparseVectorView& q = queries[i % queries.size()];
        Timer t;
        const serve::Reply r = server.submit(q, 5, deadline_us).get();
        switch (r.status) {
          case serve::RequestStatus::Ok:
            ok.fetch_add(1, std::memory_order_relaxed);
            if (r.degraded) degraded.fetch_add(1, std::memory_order_relaxed);
            hist.record(static_cast<std::uint64_t>(t.seconds() * 1e6));
            break;
          case serve::RequestStatus::Rejected:
            rejected.fetch_add(1, std::memory_order_relaxed);
            break;
          case serve::RequestStatus::DeadlineExceeded:
            expired.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            errors.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.seconds();
  server.drain();
  faults.reset();

  const util::HistogramSnapshot s = hist.snapshot();
  const serve::ServerStats st = server.stats();
  std::printf("outcome: ok=%llu (degraded=%llu) rejected=%llu expired=%llu errors=%llu\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(degraded.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(expired.load()),
              static_cast<unsigned long long>(errors.load()));
  // Server-side view through the same formatter `slide_cli serve` prints at
  // shutdown (one source of truth for the stats line).
  std::fputs(serve::format_server_stats(st).c_str(), stdout);
  std::printf("faults:  engine-delay=%llu engine-fail=%llu admission-fail=%llu\n",
              static_cast<unsigned long long>(
                  faults.triggered(util::FaultPoint::EngineDelay)),
              static_cast<unsigned long long>(
                  faults.triggered(util::FaultPoint::EngineFail)),
              static_cast<unsigned long long>(
                  faults.triggered(util::FaultPoint::AdmissionFail)));
  std::printf("ok QPS %.0f  latency us: p50=%llu p95=%llu p99=%llu\n",
              static_cast<double>(s.count) / seconds,
              static_cast<unsigned long long>(s.p50()),
              static_cast<unsigned long long>(s.p95()),
              static_cast<unsigned long long>(s.p99()));
  // A chaos run succeeds when the server survived: every request got SOME
  // answer and at least one succeeded.
  const std::uint64_t answered =
      ok.load() + rejected.load() + expired.load() + errors.load();
  return answered == total && ok.load() > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slide;

  bool chaos = false;
  bool connections = false;
  bool metrics_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
    if (std::strcmp(argv[i], "--connections") == 0) connections = true;
    if (std::strcmp(argv[i], "--metrics-overhead") == 0) metrics_overhead = true;
  }

  if (const char* connect = std::getenv("SLIDE_SERVE_CONNECT")) {
    const char* file = std::getenv("SLIDE_SERVE_QUERIES_FILE");
    if (file == nullptr) {
      std::fprintf(stderr, "TCP mode needs SLIDE_SERVE_QUERIES_FILE\n");
      return 1;
    }
    return run_tcp_loadgen(connect, file, bench::env_size("SLIDE_BENCH_QUERIES", 100),
                           static_cast<unsigned>(bench::env_size("SLIDE_BENCH_CLIENTS", 4)));
  }

  bench::print_header(
      chaos ? "Serving under chaos: deadlines, shedding, degradation"
      : connections
          ? "Serving fan-in: idle connections vs tail latency"
      : metrics_overhead
          ? "Serving telemetry overhead: live registry vs no-op registry"
          : "Serving latency: dynamic micro-batching vs per-request dispatch");
  set_log_level(LogLevel::Warn);  // keep the table clean

  bench::Workload w = bench::make_workload(baseline::PaperDataset::Amazon670k);
  const std::size_t epochs = bench::env_size("SLIDE_BENCH_EPOCHS", 1);
  set_global_pool_threads(bench::cpx_threads());

  Network net(bench::workload_network(w, Precision::Fp32));
  Trainer trainer(net, bench::trainer_config(w, epochs));
  trainer.train(w.train, w.test);
  net.rebuild_hash_tables(&global_pool());

  const infer::PackedModel packed_fp32 = infer::PackedModel::freeze(net, Precision::Fp32);

  const std::size_t total = bench::env_size("SLIDE_BENCH_QUERIES", 2000);
  const auto max_clients =
      static_cast<unsigned>(bench::env_size("SLIDE_BENCH_CLIENTS", 8));
  const std::size_t batch_max = bench::env_size("SLIDE_SERVE_BATCH_MAX", 64);

  std::vector<data::SparseVectorView> queries;
  const std::size_t nq = std::min(w.test.size(), total);
  queries.reserve(nq);
  for (std::size_t i = 0; i < nq; ++i) queries.push_back(w.test.features(i));

  if (chaos) {
    infer::InferenceEngine engine(packed_fp32);
    return run_chaos(engine, queries, total, max_clients,
                     bench::env_size("SLIDE_BENCH_DEADLINE_US", 20000));
  }
  if (connections) {
    infer::InferenceEngine engine(packed_fp32);
    return run_connection_sweep(engine, queries, total, max_clients);
  }
  if (metrics_overhead) {
    infer::InferenceEngine engine(packed_fp32);
    return run_metrics_overhead(engine, queries, total, max_clients, batch_max);
  }

  const infer::PackedModel packed_bf16 =
      infer::PackedModel::freeze(net, Precision::Bf16All);
  const infer::PackedModel packed_int8 =
      infer::PackedModel::freeze(net, Precision::Int8, queries, {});

  std::printf("model: %zu params; %zu queries/cell; batch-max=%zu\n",
              packed_fp32.num_params(), total, batch_max);
  std::printf("%-6s %-8s %-9s %7s %10s %8s %8s %8s %9s\n", "prec", "mode", "dispatch",
              "clients", "QPS", "p50us", "p95us", "p99us", "avg_batch");
  bench::print_rule(80);

  std::vector<unsigned> client_counts;
  for (unsigned c = 1; c <= max_clients; c *= 2) client_counts.push_back(c);
  if (client_counts.back() != max_clients) client_counts.push_back(max_clients);

  const infer::PackedModel* const packs[] = {&packed_fp32, &packed_bf16, &packed_int8};
  const char* const prec_names[] = {"fp32", "bf16", "int8"};
  for (std::size_t p = 0; p < 3; ++p) {
    infer::InferenceEngine engine(*packs[p]);
    for (const auto mode : {infer::TopKMode::Dense, infer::TopKMode::Sampled}) {
      const char* mode_name = mode == infer::TopKMode::Dense ? "dense" : "sampled";
      for (const unsigned clients : client_counts) {
        for (const Dispatch d :
             {Dispatch::Direct, Dispatch::PerRequest, Dispatch::Batched}) {
          const RunResult r =
              run_cell(engine, d, mode, queries, total, clients, batch_max);
          print_row(prec_names[p], mode_name, d, clients, r);
        }
      }
      bench::print_rule(80);
    }
  }
  return 0;
}
