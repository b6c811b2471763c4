// serve-dense-fp32 / serve-sampled-int8: a model trained in set-up on
// train-amazon-shaped data with a 1-thread pool (bit-reproducible), frozen,
// and served over loopback under open-loop Poisson arrivals.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "probes.h"
#include "serve/protocol.h"
#include "threading/thread_pool.h"
#include "traced_train.h"
#include "workloads.h"

namespace perfbench {

using namespace slide;

namespace {

struct ServeSpec {
  Precision precision;
  infer::TopKMode mode;
  double p99_limit_us;   // serve_qps_at_p99 latency limit
  double ref_rate;       // fixed reference rate for the latency metrics
  double recall_floor;   // correctness gate on the served answers
};

ServeSpec serve_spec(bool int8_sampled) {
  if (int8_sampled) return {Precision::Int8, infer::TopKMode::Sampled, 2000.0, 10000.0, 0.15};
  return {Precision::Fp32, infer::TopKMode::Dense, 5000.0, 1000.0, 1.0};
}

// The fixed rate ladder: 200 * 2^(i/16) requests per second.
constexpr double kLadderBase = 200.0;
constexpr double kLadderStep = 1.0442737824274138;  // 2^(1/16)
constexpr int kLadderRungs = 192;
double ladder_rate(int i) { return kLadderBase * std::pow(kLadderStep, i); }

struct RungResult {
  bool pass = false;
  bool p99_only = false;  // failed on the latency limit alone
  double p99_us = 0.0;
};

RungResult judge(const LoadResult& r, double limit_us) {
  RungResult out;
  out.p99_us = r.robust_p99();
  const double max_backlog = std::max(16.0, r.rate * limit_us * 1e-6 * 4.0);
  const bool healthy = !r.aborted && r.fail_ratio() <= 0.001 && r.ok > 0 &&
                       static_cast<double>(r.backlog_at_end) <= max_backlog;
  out.pass = healthy && out.p99_us <= limit_us;
  out.p99_only = healthy && !out.pass;
  std::printf("rung rate=%.0f sent=%llu p50=%.0fus p99=%.0fus late_p99=%.0fus backlog=%llu "
              "fail=%llu aborted=%d steal=%.3f -> %s\n",
              r.rate, static_cast<unsigned long long>(r.sent), quantile(r.latency_us, 0.5),
              out.p99_us, quantile(r.late_us, 0.99),
              static_cast<unsigned long long>(r.backlog_at_end),
              static_cast<unsigned long long>(r.failed), r.aborted ? 1 : 0, r.steal_frac,
              out.pass ? "pass" : "fail");
  return out;
}

double rung_seconds(double rate, bool tiny) {
  return tiny ? 0.1 : std::clamp(3000.0 / rate, 0.25, 1.0);
}

// Capacity estimate from one (lo, hi) rung pair: log-linear interpolation
// of p99 against rate to where it meets the limit.
double interpolate(int lo, const RungResult& rl, const RungResult& rh, double limit_us) {
  if (!rl.pass) return ladder_rate(lo - 1);
  if (rh.pass) return ladder_rate(lo + 1);
  if (!rh.p99_only || rh.p99_us <= rl.p99_us) return ladder_rate(lo);
  const double frac = std::clamp((limit_us - rl.p99_us) / (rh.p99_us - rl.p99_us), 0.0, 1.0);
  return ladder_rate(lo) * std::pow(kLadderStep, frac);
}

// One quantile of a summary series in a Prometheus exposition:
// `name{label,quantile="q"} value`; `label` may be empty.
double exposed_quantile(const std::string& text, const std::string& name,
                        const std::string& label, const char* q) {
  std::istringstream in(text);
  std::string line;
  const std::string quant = std::string("quantile=\"") + q + "\"";
  while (std::getline(in, line)) {
    if (line.rfind(name + "{", 0) != 0) continue;
    if (!label.empty() && line.find(label) == std::string::npos) continue;
    if (line.find(quant) == std::string::npos) continue;
    return std::atof(line.substr(line.rfind(' ') + 1).c_str());
  }
  return 0.0;
}

// Recall of `ids` against the first min(k, |ref|) ids of `ref`.
double overlap_at(const std::vector<std::uint32_t>& ids, const std::vector<std::uint32_t>& ref,
                  std::size_t k) {
  const std::size_t n = std::min(k, ref.size());
  if (n == 0) return 1.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < std::min(k, ids.size()); ++i) {
    if (std::find(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n), ids[i]) !=
        ref.begin() + static_cast<std::ptrdiff_t>(n)) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

}  // namespace

ServingStack::~ServingStack() {
  if (transport) transport->stop();
  if (server) server->drain();
}

std::unique_ptr<ServingStack> start_serving(const Network& net, Precision precision,
                                            infer::TopKMode mode,
                                            std::span<const data::SparseVectorView> calibration) {
  auto s = std::make_unique<ServingStack>();
  s->model = std::make_unique<infer::PackedModel>(
      precision == Precision::Int8 ? infer::PackedModel::freeze(net, precision, calibration)
                                   : infer::PackedModel::freeze(net, precision));
  s->engine = std::make_unique<infer::InferenceEngine>(*s->model);
  serve::ServerConfig cfg;
  cfg.admission = serve::Admission::Reject;
  cfg.k = 5;
  cfg.mode = mode;
  s->server = std::make_unique<serve::BatchingServer>(*s->engine, cfg);
  s->transport = serve::make_transport(serve::TransportKind::Epoll, *s->server, {});
  s->transport->start();
  return s;
}

std::vector<std::vector<std::uint8_t>> encode_queries(const data::Dataset& queries) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto x = queries.features(i);
    frames.push_back(serve::encode_query(x.index_span(), x.value_span(), 5));
  }
  return frames;
}

void report_serve_layers(ServingStack& stack, const LoadResult& window,
                         const data::Dataset& queries, infer::TopKMode mode, Tracer& tracer,
                         Report& report) {
  const std::string text = stack.server->metrics().expose();
  const char* stages[] = {"queue", "infer", "encode", "write"};
  for (const char* stage : stages) {
    for (const auto& [q, suffix] : {std::pair{"0.5", "p50"}, std::pair{"0.99", "p99"}}) {
      const double v = exposed_quantile(text, "slide_request_stage_us",
                                        std::string("stage=\"") + stage + "\"", q);
      report.set(std::string("serve.") + stage + "_us_" + suffix, v, "us", window.ok);
    }
  }
  const double e2e_p50 = exposed_quantile(text, "slide_request_e2e_us", "", "0.5");
  const serve::ServerStats st = stack.server->stats();
  report.set("serve.batch_size_mean", st.avg_batch_size, "count", st.batches);
  report.set("serve.degraded", static_cast<double>(st.degraded), "count");
  report.set("serve.rejected", static_cast<double>(st.rejected), "count");
  report.set("serve.wire_us", quantile(window.rtt_us, 0.5) - e2e_p50, "us", window.ok);
  report.set("serve.ref_p50_us", quantile(window.latency_us, 0.5), "us",
             window.latency_us.size());
  report.set("serve.ref_p99_us", window.robust_p99(), "us",
             window.latency_us.size());
  report.set("loadgen.late_p99_us", quantile(window.late_us, 0.99), "us",
             window.late_us.size());
  report.set("loadgen.steal_frac", window.steal_frac, "ratio");
  probe_infer(*stack.engine, mode, queries,
              static_cast<std::size_t>(std::lround(std::max(1.0, st.avg_batch_size))), tracer,
              report);
}

void run_serve_workload(const Options& opt, bool int8_sampled, Report& report,
                        Tracer& tracer) {
  const ServeSpec spec = serve_spec(int8_sampled);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  const unsigned threads = hardware_threads();
  // The served model is a fixed fixture, like a deployed model: its data
  // and training seeds do not follow --seed, which drives the traffic
  // (arrival schedules and query picks).  Model-to-model differences in
  // candidate-set size and recall would otherwise dominate the spread.
  Options fixture_opt = opt;
  fixture_opt.seed = 1;
  const TrainShape shape = amazon_shape(fixture_opt);
  const XcFiles files = generate_xc_files(shape, opt);
  report.stamp("scale", opt.tiny ? "tiny" : "full");
  report.stamp("dataset", "amazon670k_like");
  report.stamp("p99_limit_us", std::to_string(static_cast<int>(spec.p99_limit_us)));
  report.stamp("ref_rate_per_s", std::to_string(static_cast<int>(spec.ref_rate)));

  // --- fixture: the model to serve, trained with a 1-thread pool ---------
  set_global_pool_threads(1);
  TrainState st = set_up_training(shape, files, fixture_opt.seed);
  const std::size_t fixture_epochs = opt.tiny ? 1 : 2;
  if (opt.trace) {
    // The fixture epochs double as the traced training section: Trainer
    // epochs and traced epochs alternate on the same network.
    TracedTrainer traced(*st.net, st.tcfg, tracer);
    std::vector<double> trainer_eps, traced_eps;
    PhaseTotals totals;
    for (std::size_t e = 0; e < fixture_epochs; ++e) {
      const double s = st.trainer->train_one_epoch(*st.train);
      trainer_eps.push_back(static_cast<double>(st.train->size()) / s);
      const PhaseTotals p = traced.epoch(*st.train);
      traced_eps.push_back(static_cast<double>(p.examples) / p.epoch_s);
      totals.add(p);
    }
    report_core_layers(totals, 1, trainer_eps, traced_eps, report);
  } else {
    for (std::size_t e = 0; e < fixture_epochs; ++e) st.trainer->train_one_epoch(*st.train);
  }
  const double fixture_p5 = st.trainer->evaluate_p_at_k(*st.test, 5, 1000);
  if (!(fixture_p5 >= shape.p_at_5_floor)) {
    report.fail_gate("fixture P@5 " + std::to_string(fixture_p5) + " below floor");
  }
  set_global_pool_threads(threads);
  report.stamp("pool_width", std::to_string(threads));

  const data::Dataset& test = *st.test;
  std::vector<data::SparseVectorView> calibration;
  for (std::size_t i = 0; i < std::min<std::size_t>(512, st.train->size()); ++i) {
    calibration.push_back(st.train->features(i));
  }

  // Dense fp32 reference answers (the direct engine answer).
  std::vector<std::vector<std::uint32_t>> reference(test.size());
  {
    const infer::PackedModel fp32 = infer::PackedModel::freeze(*st.net, Precision::Fp32);
    infer::InferenceEngine direct(fp32);
    for (std::size_t q = 0; q < test.size(); ++q) {
      direct.predict_topk(test.features(q), 5, reference[q], infer::TopKMode::Dense);
    }
  }
  const std::size_t output_dim = st.net->output_dim();
  const bool exact = spec.mode == infer::TopKMode::Dense && spec.precision == Precision::Fp32;
  const ReplyCheck check = [&](std::size_t q, const serve::QueryReply& reply, double& recall) {
    recall = overlap_at(reply.ids, reference[q], 5);
    if (reply.ids.empty() || reply.ids.size() > 5) return false;
    for (const std::uint32_t id : reply.ids) {
      if (id >= output_dim) return false;
    }
    // A degraded reply came from the sampled path: counted, never held to
    // the dense answer.
    if (exact && !reply.degraded) return reply.ids == reference[q];
    return true;
  };
  const auto frames = encode_queries(test);

  // --- set-up: freeze + engine + server + transport + client connections --
  std::vector<double> setup_s;
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<LoadGen> lg;
  // One connection (a sender and a receiver thread): the engine pool, the
  // reactors and the dispatcher already share the cores.
  const unsigned connections = 1;
  for (int r = 0; r < 7; ++r) {
    lg.reset();
    stack.reset();
    const auto t0 = Clock::now();
    stack = start_serving(*st.net, spec.precision, spec.mode, calibration);
    lg = std::make_unique<LoadGen>(stack->transport->port(), connections, frames, check);
    const auto t1 = Clock::now();
    tracer.add("serve.setup", t0, t1);
    setup_s.push_back(seconds_between(t0, t1));
  }
  report.stamp("connections", std::to_string(connections));

  std::uint64_t sent = 0, failed = 0, wrong = 0, degraded = 0;
  const auto account = [&](const LoadResult& r) {
    sent += r.sent;
    failed += r.failed;
    wrong += r.wrong;
    degraded += r.degraded;
  };

  // --- offline scoring of the full test split through the engine ---------
  // Timed in short blocks spread over the run (one before the load, one
  // after each reference segment), so the median sees the host's typical
  // speed rather than one second of it.
  std::vector<data::SparseVectorView> eval_xs;
  for (std::size_t i = 0; i < test.size(); ++i) eval_xs.push_back(test.features(i));
  std::vector<std::uint32_t> eval_out(eval_xs.size() * 5);
  std::vector<double> eval_eps;
  const auto eval_block = [&](double block_s, bool timed) {
    const auto block_start = Clock::now();
    for (std::size_t passes = 0;
         passes < 2 || seconds_between(block_start, Clock::now()) < block_s; ++passes) {
      const auto t0 = Clock::now();
      stack->engine->predict_topk_batch(eval_xs, 5, eval_out.data(), nullptr, spec.mode);
      const auto t1 = Clock::now();
      if (!timed) continue;
      tracer.add("infer.eval_batch", t0, t1);
      eval_eps.push_back(static_cast<double>(eval_xs.size()) / seconds_between(t0, t1));
    }
  };
  // The first second of full-width work after the single-threaded fixture
  // runs several times slower on a VM host (idle vCPUs waking), so an
  // untimed block comes first.
  eval_block(opt.tiny ? 0.05 : 1.5, false);
  eval_block(opt.tiny ? 0.05 : 0.25, true);

  std::uint64_t seq = 0;
  const auto window = [&](double rate, double secs) {
    const auto t0 = Clock::now();
    LoadResult r = lg->run(rate, secs, mix64(opt.seed, ++seq),
                           std::max(0.05, 50.0 * spec.p99_limit_us * 1e-6));
    tracer.add("loadgen.window", t0, Clock::now());
    account(r);
    return r;
  };
  double limit_us = spec.p99_limit_us;  // raised below if the host's noise floor is high
  const auto probe = [&](int rung) {
    const double rate = ladder_rate(rung);
    RungResult r = judge(window(rate, rung_seconds(rate, opt.tiny)), limit_us);
    // A failure is confirmed by a second window: one host stall must not
    // move the search.
    if (!r.pass) r = judge(window(rate, rung_seconds(rate, opt.tiny)), limit_us);
    return r;
  };
  window(spec.ref_rate / 4, opt.tiny ? 0.1 : 0.3);  // warm-up: connections, pool, caches

  // Reference-rate segments, interleaved with the capacity search so that a
  // host disturbance lands on a few segments rather than on the whole metric.
  const double segment_s = opt.tiny ? 0.1 : 1.0;
  int segments_left = opt.tiny ? 2 : 4;
  LoadResult ref;
  const auto ref_segment = [&] {
    if (segments_left == 0) return;
    --segments_left;
    ref.merge(window(spec.ref_rate, segment_s));
    eval_block(opt.tiny ? 0.05 : 0.25, true);
  };

  if (opt.trace) {
    while (segments_left > 0) ref_segment();
    report_serve_layers(*stack, ref, test, spec.mode, tracer, report);
    const infer::PackedModel::Layer& out_layer =
        stack->model->layer(stack->model->num_layers() - 1);
    probe_lsh(*st.net, *out_layer.family, *out_layer.tables, test, tracer, report);
    probe_kernels({st.net->input_dim(), shape.hidden, output_dim,
                   static_cast<std::size_t>(shape.data.avg_nnz)},
                  opt.seed, opt.tiny ? 0.2 : 1.5, tracer, report);
    probe_parse(files.train_path, shape.chunk_bytes, tracer, report);
  } else {
    // --- serve_qps_at_p99 -------------------------------------------------
    // Binary search over the fixed ladder for the highest passing rung,
    // then a staircase (one rung up after a pass, one down after a
    // failure) for the rest of the budget.  Every pass/fail reversal
    // between neighbouring rungs gives one capacity estimate.
    // On a contended VM the p99 at light load can already exceed the limit,
    // and the search would then measure the host, not the server.  The
    // limit is therefore at least 3x the p99 this run sees at the reference
    // rate, so the metric stays the saturation knee.
    ref_segment();
    limit_us = std::max(spec.p99_limit_us, 3.0 * ref.robust_p99());
    std::printf("serve: p99 limit for the capacity search %.0f us\n", limit_us);
    int lo = -1, hi = kLadderRungs;
    RungResult lo_res, hi_res;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const RungResult r = probe(mid);
      (r.pass ? lo : hi) = mid;
      (r.pass ? lo_res : hi_res) = r;
    }
    std::vector<double> capacity;
    if (lo < 0) {
      // Not a correctness failure: the capacity is below the ladder.
      std::printf("serve: no rung of the ladder met the p99 limit\n");
      capacity.push_back(ladder_rate(0) / kLadderStep);
    } else {
      capacity.push_back(interpolate(lo, lo_res, hi_res, limit_us));
      // The staircase starts with 4-rung steps and halves the step at each
      // reversal, so a search thrown off by a host stall re-centres within
      // a few probes; reversals at step 1 give the estimates.
      int cur = lo, prev_rung = lo + 1, stride = 4, last_dir = -1;
      RungResult prev = hi_res;
      const double step_s = 2.0 * rung_seconds(ladder_rate(lo), opt.tiny) + 0.1;
      for (int step = 1; step <= 60; ++step) {
        const double reserve = segments_left * (segment_s + 0.35) + step_s;
        if (seconds_between(Clock::now(), deadline) < reserve) break;
        const RungResult r = probe(cur);
        const int dir = r.pass ? 1 : -1;
        if (prev_rung == cur - 1 && prev.pass && !r.pass) {
          capacity.push_back(interpolate(cur - 1, prev, r, limit_us));
        } else if (prev_rung == cur + 1 && r.pass && !prev.pass) {
          capacity.push_back(interpolate(cur, r, prev, limit_us));
        }
        if (dir != last_dir && stride > 1) stride /= 2;
        last_dir = dir;
        prev = r;
        prev_rung = cur;
        cur = std::clamp(cur + dir * stride, 0, kLadderRungs - 1);
        if (step % 3 == 0) ref_segment();
      }
    }
    while (segments_left > 0) ref_segment();
    report.set("throughput_per_s", median(capacity), "1/s", capacity.size());
    report.set("eval_examples_per_s", median(eval_eps), "1/s", eval_eps.size());
    report.set("quality", ref.recall_n ? ref.recall_sum / static_cast<double>(ref.recall_n) : 0.0,
               "ratio", ref.recall_n);
    report.set("query_p50_us", quantile(ref.latency_us, 0.5), "us", ref.latency_us.size());
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("ok_ratio",
               sent == 0 ? 0.0 : 1.0 - static_cast<double>(failed) / static_cast<double>(sent),
               "ratio", sent);
  }

  // --- correctness gates ------------------------------------------------------
  if (wrong > 0) report.fail_gate(std::to_string(wrong) + " wrong answers");
  const double recall =
      ref.recall_n ? ref.recall_sum / static_cast<double>(ref.recall_n) : 0.0;
  if (exact && ref.recall_n > 0 && ref.degraded == 0 && recall != 1.0) {
    report.fail_gate("dense fp32 recall@5 is not exactly 1");
  }
  if (!opt.tiny && recall < spec.recall_floor - 1e-12) {
    report.fail_gate("recall@5 " + std::to_string(recall) + " below floor");
  }
  if (ref.ok == 0) report.fail_gate("no request answered in the reference window");
  report.add_ops(sent, failed);
  std::printf("serve: sent=%llu failed=%llu wrong=%llu degraded=%llu\n",
              static_cast<unsigned long long>(sent), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(wrong), static_cast<unsigned long long>(degraded));
}

}  // namespace perfbench
