#include "serve/batching_server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/fault_injection.h"
#include "util/logging.h"

namespace slide::serve {

namespace {
using Clock = std::chrono::steady_clock;

constexpr auto kNoDeadline = Clock::time_point::max();
// Batches between re-evaluations of the latency-based pressure signal (a
// histogram snapshot merges every shard; too costly per batch).
constexpr std::uint64_t kLatencyCheckInterval = 64;

std::uint64_t micros_between(Clock::time_point a, Clock::time_point b) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us <= 0 ? 0 : static_cast<std::uint64_t>(us);
}

Clock::time_point deadline_from_budget(Clock::time_point now, std::uint64_t budget_us) {
  if (budget_us == 0) return kNoDeadline;
  const auto budget = std::chrono::microseconds(budget_us);
  // Saturate instead of overflowing on absurd budgets.
  if (kNoDeadline - now < budget) return kNoDeadline;
  return now + budget;
}
}  // namespace

BatchingServer::BatchingServer(infer::InferenceEngine& engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      effective_batch_(std::max<std::size_t>(1, config_.policy.max_batch_size)),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? *config_.metrics : *owned_metrics_),
      accepted_(metrics_.counter("slide_requests_total",
                                 "Requests admitted to the batching queue")),
      completed_(metrics_.counter("slide_requests_completed_total",
                                  "Requests answered Ok (degraded or not)")),
      rejected_(metrics_.counter("slide_requests_rejected_total",
                                 "Requests bounced at admission (queue full)")),
      shed_(metrics_.counter("slide_requests_shed_total",
                             "Queued requests evicted to admit tighter-deadline work")),
      expired_count_(metrics_.counter("slide_requests_expired_total",
                                      "Requests whose deadline passed before dispatch")),
      degraded_(metrics_.counter("slide_requests_degraded_total",
                                 "Requests served via the sampled path under pressure")),
      errors_(metrics_.counter("slide_requests_error_total",
                               "Requests failed by an engine error")),
      batches_(metrics_.counter("slide_batches_total", "Batches dispatched")),
      batch_queries_(metrics_.histogram("slide_batch_queries",
                                        "Queries per dispatched batch")),
      queue_depth_gauge_(metrics_.gauge("slide_queue_depth",
                                        "Backlog at the last batch formation")),
      load_state_gauge_(metrics_.gauge(
          "slide_load_state", "Load state (0=normal 1=pressure 2=saturated)")),
      queue_us_(metrics_.histogram(
          "slide_request_stage_us",
          "Per-request stage latency in microseconds, by stage",
          {{"stage", "queue"}})),
      infer_us_(metrics_.histogram(
          "slide_request_stage_us",
          "Per-request stage latency in microseconds, by stage",
          {{"stage", "infer"}})),
      total_us_(metrics_.histogram(
          "slide_request_total_us",
          "Server-side request latency (admission to completion), microseconds")) {
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

BatchingServer::~BatchingServer() { drain(); }

void BatchingServer::complete(Pending& req, Reply&& reply) {
  if (req.callback) {
    req.callback(std::move(reply));
  } else {
    req.promise.set_value(std::move(reply));
  }
}

RequestStatus BatchingServer::admit(Pending& req, bool may_block) {
  auto& faults = util::FaultInjector::instance();
  if (faults.enabled() && faults.should_fail(util::FaultPoint::AdmissionFail)) {
    rejected_.inc();
    return RequestStatus::Rejected;
  }

  Pending victim;
  bool have_victim = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (may_block && config_.admission == Admission::Block) {
      const auto space = [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               queue_.size() < config_.queue_capacity;
      };
      if (req.deadline == kNoDeadline) {
        space_cv_.wait(lock, space);
      } else if (!space_cv_.wait_until(lock, req.deadline, space)) {
        // The producer's budget ran out while parked on a full queue.
        expired_count_.inc();
        return RequestStatus::DeadlineExceeded;
      }
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      return RequestStatus::ShuttingDown;
    }
    if (queue_.size() >= config_.queue_capacity) {  // queue full
      // Deadline-aware shedding: evict the queued request with the MOST
      // remaining slack (no-deadline requests count as infinite slack) when
      // the newcomer's deadline is strictly tighter — requests closest to
      // their deadline are shed last.
      auto victim_it = queue_.end();
      if (config_.pressure.shed_by_deadline && req.deadline != kNoDeadline) {
        victim_it = std::max_element(
            queue_.begin(), queue_.end(),
            [](const Pending& a, const Pending& b) { return a.deadline < b.deadline; });
        if (victim_it != queue_.end() && victim_it->deadline <= req.deadline) {
          victim_it = queue_.end();  // newcomer has no strictly tighter claim
        }
      }
      if (victim_it == queue_.end()) {
        rejected_.inc();
        return RequestStatus::Rejected;
      }
      victim = std::move(*victim_it);
      queue_.erase(victim_it);
      have_victim = true;
      shed_.inc();
    }
    queue_.push_back(std::move(req));
    accepted_.inc();
  }
  if (have_victim) {
    Reply r;
    r.status = RequestStatus::Rejected;
    complete(victim, std::move(r));
  }
  work_cv_.notify_one();
  return RequestStatus::Ok;
}

std::future<Reply> BatchingServer::submit(data::SparseVectorView x, std::uint32_t k,
                                          std::uint64_t deadline_us) {
  Pending req;
  req.indices.assign(x.indices, x.indices + x.nnz);
  req.values.assign(x.values, x.values + x.nnz);
  req.k = k;
  req.enqueued = Clock::now();
  req.deadline = deadline_from_budget(req.enqueued, deadline_us);
  std::future<Reply> future = req.promise.get_future();

  const RequestStatus admitted = admit(req, /*may_block=*/true);
  if (admitted != RequestStatus::Ok) {
    Reply r;
    r.status = admitted;
    complete(req, std::move(r));
  }
  return future;
}

void BatchingServer::submit_async(data::SparseVectorView x, std::uint32_t k,
                                  std::uint64_t deadline_us, SubmitCallback done) {
  Pending req;
  req.indices.assign(x.indices, x.indices + x.nnz);
  req.values.assign(x.values, x.values + x.nnz);
  req.k = k;
  req.enqueued = Clock::now();
  req.deadline = deadline_from_budget(req.enqueued, deadline_us);
  req.callback = std::move(done);

  const RequestStatus admitted = admit(req, /*may_block=*/false);
  if (admitted != RequestStatus::Ok) {
    Reply r;
    r.status = admitted;
    complete(req, std::move(r));
  }
}

void BatchingServer::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(drain_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void BatchingServer::sweep_expired_locked(Clock::time_point now) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      expired_.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void BatchingServer::publish_load_state(std::size_t backlog) {
  if (config_.pressure.degrade_p99_us != 0 &&
      batches_.value() % kLatencyCheckInterval == 0) {
    latency_pressure_.store(
        total_us_.snapshot().p99() >= config_.pressure.degrade_p99_us,
        std::memory_order_relaxed);
  }
  const double fill =
      config_.queue_capacity == 0
          ? 1.0
          : static_cast<double>(backlog) / static_cast<double>(config_.queue_capacity);
  LoadState state = LoadState::Normal;
  if (fill >= 1.0) {
    state = LoadState::Saturated;
  } else if ((config_.pressure.degrade_fill < 1.0 &&
              fill >= config_.pressure.degrade_fill) ||
             latency_pressure_.load(std::memory_order_relaxed)) {
    state = LoadState::Pressure;
  }
  load_state_.store(static_cast<std::uint8_t>(state), std::memory_order_relaxed);
  queue_depth_gauge_.set(static_cast<double>(backlog));
  load_state_gauge_.set(static_cast<double>(static_cast<std::uint8_t>(state)));
}

void BatchingServer::dispatcher_main() {
  std::vector<Pending> batch;
  // Expired requests are swept under the lock but completed outside it (a
  // promise fulfillment wakes a waiter; no reason to do that holding mutex_).
  const auto complete_expired = [&] {
    for (Pending& p : expired_) {
      Reply r;
      r.status = RequestStatus::DeadlineExceeded;
      expired_count_.inc();
      complete(p, std::move(r));
    }
    expired_.clear();
  };

  for (;;) {
    bool degraded = false;
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return !queue_.empty() || stopping_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) return;  // stopping and fully drained

      // Work-conserving formation: an idle dispatcher serves what is queued
      // now, with no timed wait.  Requests that arrive while this batch runs
      // form the next one.
      sweep_expired_locked(Clock::now());
      const std::size_t backlog = queue_.size();
      if (backlog > 0) {
        publish_load_state(backlog);
        // Graceful degradation: under pressure a Dense server answers from
        // the LSH-sampled path — SLIDE's accuracy/speed tradeoff as a load
        // lever.  Decided per batch, while the formation lock pins the state.
        degraded = config_.pressure.allow_degrade &&
                   config_.mode == infer::TopKMode::Dense &&
                   load_state() != LoadState::Normal;
        const std::size_t take = std::min(effective_batch_, backlog);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    space_cv_.notify_all();
    complete_expired();
    if (!batch.empty()) run_batch(batch, degraded);
  }
}

void BatchingServer::run_batch(std::vector<Pending>& batch, bool degraded) {
  const auto formed = Clock::now();
  const std::size_t n = batch.size();
  // Counted at dispatch, before any reply completes, so a client that holds
  // its reply also sees its batch in the counters.
  batches_.inc();
  batch_queries_.record(n);
  std::size_t k = std::min<std::size_t>(config_.k, engine_.model().output_dim());
  k = std::max<std::size_t>(1, k);
  const infer::TopKMode mode = degraded ? infer::TopKMode::Sampled : config_.mode;

  views_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    views_[i] = {batch[i].indices.data(), batch[i].values.data(),
                 batch[i].indices.size()};
    queue_us_.record(micros_between(batch[i].enqueued, formed));
  }

  ids_.resize(n * k);
  scores_.resize(n * k);
  // Tracks which requests the per-query callback has already answered, so
  // an engine failure completes exactly the remainder (a promise must be
  // fulfilled exactly once).
  std::vector<std::atomic<bool>> answered(n);
  try {
    auto& faults = util::FaultInjector::instance();
    if (faults.enabled()) {
      faults.maybe_delay(util::FaultPoint::EngineDelay);
      if (faults.should_fail(util::FaultPoint::EngineFail)) {
        throw std::runtime_error("injected engine failure");
      }
    }
    // The engine completes queries out of order across pool workers; the
    // per-query callback hands each reply to its waiter the moment its row
    // is final instead of after the whole batch (the partial-batch path).
    engine_.predict_topk_batch(
        views_, k, ids_.data(), scores_.data(), mode, config_.pool,
        [&](std::size_t q) {
          Pending& req = batch[q];
          const std::uint32_t* row = ids_.data() + q * k;
          const float* srow = scores_.data() + q * k;
          std::size_t count = k;
          while (count > 0 && row[count - 1] == infer::InferenceEngine::kInvalidId) {
            --count;
          }
          if (req.k != 0) count = std::min<std::size_t>(count, req.k);
          Reply reply;
          reply.status = RequestStatus::Ok;
          reply.degraded = degraded;
          reply.ids.assign(row, row + count);
          reply.scores.assign(srow, srow + count);
          const auto inferred = Clock::now();
          reply.timing.admitted = req.enqueued;
          reply.timing.formed = formed;
          reply.timing.inferred = inferred;
          infer_us_.record(micros_between(formed, inferred));
          total_us_.record(micros_between(req.enqueued, inferred));
          completed_.inc();
          if (degraded) degraded_.inc();
          answered[q].store(true, std::memory_order_release);
          complete(req, std::move(reply));
        });
  } catch (const std::exception& e) {
    // Engine failure: the batch's unanswered requests get an error reply —
    // callers never hang on a broken future and the dispatcher survives to
    // serve the next batch.
    log_error("serve: engine batch failed: ", e.what());
    for (std::size_t q = 0; q < n; ++q) {
      if (answered[q].load(std::memory_order_acquire)) continue;
      Reply reply;
      reply.status = RequestStatus::Error;
      errors_.inc();
      complete(batch[q], std::move(reply));
    }
  }
}

ServerStats BatchingServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.value();
  s.completed = completed_.value();
  s.rejected = rejected_.value();
  s.shed = shed_.value();
  s.expired = expired_count_.value();
  s.degraded = degraded_.value();
  s.errors = errors_.value();
  s.batches = batches_.value();
  s.avg_batch_size =
      s.batches == 0 ? 0.0
                     : static_cast<double>(s.completed) / static_cast<double>(s.batches);
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
    s.queue_depth = queue_.size();
  }
  s.load = load_state();
  s.queue_us = queue_us_.snapshot();
  s.total_us = total_us_.snapshot();
  return s;
}

}  // namespace slide::serve
