// Dynamic micro-batching request server over the InferenceEngine.
//
// Serving traffic arrives one query at a time, but the engine's batch entry
// point amortizes thread-pool wakeups and keeps the blocked dot_rows_*
// kernels fed — the same batching effect SLIDE exploits in training.  This
// server closes the gap: concurrent producers submit single queries, a
// dispatcher coalesces them into batches of at most `max_batch_size`, and
// per-request futures complete as soon as the engine finishes each query.
//
// Batch formation is work-conserving: the moment the queue is non-empty and
// no batch is running, the dispatcher takes every queued request, in FIFO
// order, up to `max_batch_size`, with no timed wait.  Requests coalesce only
// while a batch runs: whatever arrives during one batch forms the next.  An
// idle server therefore answers a lone request at engine speed, and batches
// grow with the load, because a busier engine lets more requests queue
// behind each batch.  Batch size 1 is per-request dispatch — the bench's
// control arm.  `slide_batch_queries` records each batch's size.
//
// Deadlines: a request may carry a microsecond budget (deadline_us;
// 0 = none).  Every formation first sheds the queued requests whose
// deadline has passed, with RequestStatus::DeadlineExceeded — the engine
// never burns kernel time on an answer nobody is waiting for.  A request
// that expires while a batch runs is detected when that batch returns;
// there is no coalescing wait to bound.
//
// Load shedding with graceful degradation: the dispatcher derives a
// ServerLoadState from queue fill (and optionally the p99 of the latency
// histogram).  Under LoadState::Pressure a Dense-mode server downgrades
// batches to the LSH-sampled path — the paper's own accuracy/speed tradeoff
// used as a degradation lever: an approximate answer beats a shed request.
// Degraded replies are flagged.  When the queue is saturated (full),
// admission sheds by remaining deadline: the queued request with the MOST
// slack is evicted first to admit tighter-deadline work, so the
// lowest-remaining-deadline requests are shed last.
//
// Backpressure: the queue is bounded by `queue_capacity`.  When full,
// Admission::Reject completes the future immediately with
// RequestStatus::Rejected (the TCP layer maps this to an Overloaded reply);
// Admission::Block parks the producer until space frees up or its deadline
// passes — bounded memory either way, with the overload cost landing on
// either the client (Reject) or the producer thread (Block).  Block is for
// in-process producers: the TCP front end submits through submit_async,
// which never parks.
//
// Fault tolerance: an engine failure (thrown exception — including ones
// injected via util/fault_injection.h) completes the affected requests with
// RequestStatus::Error instead of crashing or leaking futures; the
// dispatcher survives and keeps serving subsequent batches.
//
// Lifecycle: drain() stops admission, serves every request already
// accepted, then joins the dispatcher; the destructor drains implicitly.
// Submissions after drain complete with RequestStatus::ShuttingDown.
//
// This core is transport-agnostic and fully testable in-process;
// serve/epoll_server.h adds the wire front end.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/sparse_batch.h"
#include "infer/engine.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace slide::serve {

enum class Admission { Reject, Block };

// Ordered by severity; the dispatcher publishes the current state after
// every batch formation.
enum class LoadState : std::uint8_t { Normal = 0, Pressure = 1, Saturated = 2 };

inline const char* load_state_name(LoadState s) {
  switch (s) {
    case LoadState::Normal: return "normal";
    case LoadState::Pressure: return "pressure";
    case LoadState::Saturated: return "saturated";
  }
  return "?";
}

struct BatchPolicy {
  std::size_t max_batch_size = 64;
};

// Overload thresholds for graceful degradation and deadline-aware shedding.
struct PressureConfig {
  // Queue fill fraction at/above which the server is under Pressure and a
  // Dense server degrades batches to the sampled path.  >= 1.0 disables
  // fill-based degradation.
  double degrade_fill = 0.75;
  // Total-latency p99 (microseconds) that also trips Pressure; 0 disables.
  // Re-evaluated periodically (histogram snapshots are not free).
  std::uint64_t degrade_p99_us = 0;
  // Master switch for the dense -> sampled downgrade.
  bool allow_degrade = true;
  // When the queue is full, evict the queued request with the most
  // remaining deadline slack to admit tighter-deadline work.
  bool shed_by_deadline = true;
};

struct ServerConfig {
  BatchPolicy policy;
  PressureConfig pressure;
  std::size_t queue_capacity = 1024;
  Admission admission = Admission::Reject;
  std::size_t k = 5;                                // ids per reply (cap)
  infer::TopKMode mode = infer::TopKMode::Dense;
  ThreadPool* pool = nullptr;                       // engine fan-out; global when null
  // Telemetry sink.  Null makes the server own a private registry, so
  // in-process servers (tests, bench cells) stay isolated; slide_cli passes
  // obs::MetricsRegistry::global() so /metrics sees one source of truth.
  obs::MetricsRegistry* metrics = nullptr;
};

enum class RequestStatus : std::uint8_t {
  Ok = 0,
  Rejected = 1,
  ShuttingDown = 2,
  DeadlineExceeded = 3,
  Error = 4,  // engine failure; the request itself was well-formed
};

inline const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::ShuttingDown: return "shutting_down";
    case RequestStatus::DeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::Error: return "error";
  }
  return "?";
}

// Per-request trace clock: server-side stage stamps carried on the reply so
// the transport can extend the trace through encode and socket write.  The
// stages partition the request's lifetime exactly:
//   admitted->formed   queue wait
//   formed->inferred   engine inference (includes batch execution)
//   inferred->encoded  reply encode + handoff to the writing thread (transport)
//   encoded->written   socket write, incl. reactor reorder wait (transport)
// Default-constructed (epoch) stamps mean "not answered by the engine" —
// rejected/expired replies carry no timing.
struct RequestTiming {
  std::chrono::steady_clock::time_point admitted{};
  std::chrono::steady_clock::time_point formed{};
  std::chrono::steady_clock::time_point inferred{};
  bool stamped() const { return admitted != std::chrono::steady_clock::time_point{}; }
};

struct Reply {
  RequestStatus status = RequestStatus::Ok;
  bool degraded = false;             // answered via the sampled path under load
  std::vector<std::uint32_t> ids;    // best-first, no kInvalidId padding
  std::vector<float> scores;         // matching logits
  RequestTiming timing;              // stage stamps (Ok replies only)
};

// Counters + latency distributions since construction.  Latencies are in
// microseconds; queue_us is admission->batch-formation wait, total_us is
// admission->completion (what a client observes minus transport).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;   // answered Ok (degraded or not)
  std::uint64_t rejected = 0;    // bounced at admission (queue full)
  std::uint64_t shed = 0;        // evicted from the queue to admit tighter work
  std::uint64_t expired = 0;     // deadline passed before dispatch
  std::uint64_t degraded = 0;    // served via the sampled path under pressure
  std::uint64_t errors = 0;      // engine failures surfaced as RequestStatus::Error
  std::uint64_t batches = 0;
  double avg_batch_size = 0.0;
  std::size_t queue_depth = 0;
  LoadState load = LoadState::Normal;
  util::HistogramSnapshot queue_us;
  util::HistogramSnapshot total_us;
};

class BatchingServer {
 public:
  BatchingServer(infer::InferenceEngine& engine, ServerConfig config);
  ~BatchingServer();  // implicit drain()

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  // Thread-safe.  Copies the query (the caller's buffers may die as soon as
  // submit returns).  A request with k == 0 serves the configured k;
  // otherwise the reply holds min(k, config.k, output_dim) entries.
  // deadline_us is the request's budget from this call (0 = no deadline);
  // once it expires the reply is RequestStatus::DeadlineExceeded.
  std::future<Reply> submit(data::SparseVectorView x, std::uint32_t k = 0,
                            std::uint64_t deadline_us = 0);

  // Completion callback for submit_async.  Runs on whatever thread completes
  // the request — an engine pool worker, the dispatcher, or (for immediate
  // rejections) the submitting thread itself — so it must be cheap and
  // non-blocking; the epoll transport just encodes the frame and hands it to
  // the owning reactor.  Invoked exactly once, never under server locks.
  using SubmitCallback = std::function<void(Reply&&)>;

  // Callback flavor of submit() for event-driven callers that cannot park a
  // thread on a future.  Identical semantics with one exception: it NEVER
  // blocks, so under Admission::Block a full queue rejects instead of
  // parking the caller (an event loop supplies its own backpressure by
  // pausing reads; blocking a reactor would stall every other connection).
  void submit_async(data::SparseVectorView x, std::uint32_t k,
                    std::uint64_t deadline_us, SubmitCallback done);

  // Stops admission, completes everything already accepted, joins the
  // dispatcher.  Idempotent; safe to race with submitters.
  void drain();

  bool draining() const { return stopping_.load(std::memory_order_acquire); }
  LoadState load_state() const {
    return static_cast<LoadState>(load_state_.load(std::memory_order_relaxed));
  }
  const ServerConfig& config() const { return config_; }
  const infer::InferenceEngine& engine() const { return engine_; }
  // The registry this server reports into (the configured one, or the
  // private registry it created).  Transports register their own wire-level
  // metrics here so one expose() covers the whole serving path.
  obs::MetricsRegistry& metrics() const { return metrics_; }
  ServerStats stats() const;

 private:
  struct Pending {
    std::vector<std::uint32_t> indices;
    std::vector<float> values;
    std::uint32_t k = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // time_point::max() = none
    std::promise<Reply> promise;   // future path (submit)
    SubmitCallback callback;       // callback path (submit_async); wins if set
  };

  // Every completion funnels through here so both waiter styles (future and
  // callback) see identical reply semantics.  Never called under mutex_.
  static void complete(Pending& req, Reply&& reply);

  // Shared admission core: fault hook, optional Block-mode wait, stop check,
  // queue-full shedding, enqueue.  Returns Ok with `req` consumed (queued),
  // or the failure status with `req` untouched for the caller to complete.
  RequestStatus admit(Pending& req, bool may_block);

  void dispatcher_main();
  void run_batch(std::vector<Pending>& batch, bool degraded);
  // Moves expired requests out of the queue into `expired_` (caller
  // completes them outside the lock).  Requires mutex_ held.
  void sweep_expired_locked(std::chrono::steady_clock::time_point now);
  void publish_load_state(std::size_t backlog);

  // Dispatcher-thread-only scratch, reused across batches.
  std::vector<data::SparseVectorView> views_;
  std::vector<std::uint32_t> ids_;
  std::vector<float> scores_;
  std::vector<Pending> expired_;  // swept-out requests awaiting completion

  infer::InferenceEngine& engine_;
  const ServerConfig config_;
  const std::size_t effective_batch_;  // >= 1

  // One source of truth for every counter/gauge/histogram below: either the
  // caller's registry (config.metrics) or a private one owned here.  The
  // handle references are hot-path-safe (single relaxed atomic per update)
  // and must be declared after owned_metrics_/metrics_ (initialization
  // order).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry& metrics_;
  obs::Counter& accepted_;
  obs::Counter& completed_;
  obs::Counter& rejected_;
  obs::Counter& shed_;
  obs::Counter& expired_count_;
  obs::Counter& degraded_;
  obs::Counter& errors_;
  obs::Counter& batches_;
  obs::Histogram& batch_queries_;
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& load_state_gauge_;
  obs::Histogram& queue_us_;
  obs::Histogram& infer_us_;
  obs::Histogram& total_us_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // dispatcher: queue non-empty / stopping
  std::condition_variable space_cv_;  // Block-mode producers: queue has room
  std::deque<Pending> queue_;
  // Set under mutex_ (so cv waiters observe it) but also read lock-free by
  // draining(); hence atomic.
  std::atomic<bool> stopping_{false};

  std::mutex drain_mutex_;  // serializes concurrent drain() calls on join
  std::thread dispatcher_;

  std::atomic<std::uint8_t> load_state_{0};
  // Latency-tripped pressure, re-evaluated every kLatencyCheckInterval
  // batches (a histogram snapshot merges every shard; too costly per batch).
  std::atomic<bool> latency_pressure_{false};
};

}  // namespace slide::serve
