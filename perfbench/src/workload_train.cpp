// train-amazon / train-wiki-bf16-stream: repeated fixed-budget training
// runs from a fresh network, each followed by full-test-split evaluation.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "probes.h"
#include "threading/thread_pool.h"
#include "traced_train.h"
#include "workloads.h"

namespace perfbench {

using namespace slide;

namespace {

double train_epoch(TrainState& st) {
  return st.stream ? st.trainer->train_one_epoch(*st.stream)
                   : st.trainer->train_one_epoch(*st.train);
}

// Serving probe for the traced run: the trained model frozen at its own
// precision, served Dense at a low fixed rate.
void probe_serving(const TrainShape& shape, TrainState& st, const Options& opt,
                   Tracer& tracer, Report& report) {
  constexpr double kRate = 300.0;
  const data::Dataset& test = *st.test;
  auto stack = start_serving(*st.net, shape.precision, infer::TopKMode::Dense, {});
  const std::size_t output_dim = st.net->output_dim();
  LoadGen lg(stack->transport->port(), 1, encode_queries(test),
             [&](std::size_t, const serve::QueryReply& reply, double& recall) {
               recall = 1.0;
               return !reply.ids.empty() &&
                      std::all_of(reply.ids.begin(), reply.ids.end(),
                                  [&](std::uint32_t id) { return id < output_dim; });
             });
  lg.run(kRate, opt.tiny ? 0.1 : 0.3, mix64(opt.seed, 1), 0.5);  // warm-up
  const auto t0 = Clock::now();
  const LoadResult r = lg.run(kRate, opt.tiny ? 0.3 : 2.0, mix64(opt.seed, 2), 0.5);
  tracer.add("loadgen.window", t0, Clock::now());
  report.add_ops(r.sent, r.failed);
  if (r.failed > 0) report.fail_gate("serving probe: " + std::to_string(r.failed) + " failures");
  report_serve_layers(*stack, r, test, infer::TopKMode::Dense, tracer, report);
}

void run_traced(const Options& opt, const TrainShape& shape, const XcFiles& files,
                Report& report, Tracer& tracer) {
  TrainState st = set_up_training(shape, files, opt.seed);
  train_epoch(st);  // warm-up epoch: the first epoch is not steady state
  TracedTrainer traced(*st.net, st.tcfg, tracer);
  std::vector<double> trainer_eps, traced_eps;
  PhaseTotals totals;
  const auto t_start = Clock::now();
  const double budget = opt.seconds * 0.5;
  for (std::size_t k = 0; k < 6; ++k) {
    // Alternate which side runs first so drift lands on both.
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (k % 2 == 0)) {
        const double s = train_epoch(st);
        trainer_eps.push_back(static_cast<double>(st.train_examples()) / s);
      } else {
        const PhaseTotals p = st.stream ? traced.epoch(*st.stream) : traced.epoch(*st.train);
        traced_eps.push_back(static_cast<double>(p.examples) / p.epoch_s);
        totals.add(p);
      }
    }
    if (k >= 1 && seconds_between(t_start, Clock::now()) > budget) break;
  }
  report_core_layers(totals, global_pool().size(), trainer_eps, traced_eps, report);
  report.add_ops(totals.batches, totals.loss_finite ? 0 : totals.batches);

  const data::Dataset& test = *st.test;
  const Layer& out_layer = st.net->layer(st.net->num_layers() - 1);
  probe_lsh(*st.net, *out_layer.hash_family(), *out_layer.tables(), test, tracer, report);
  probe_kernels({st.net->input_dim(), shape.hidden, st.net->output_dim(),
                 static_cast<std::size_t>(shape.data.avg_nnz)},
                opt.seed, opt.tiny ? 0.2 : 1.5, tracer, report);
  probe_parse(files.train_path, shape.chunk_bytes, tracer, report);
  probe_serving(shape, st, opt, tracer, report);
}

}  // namespace

void run_train_workload(const Options& opt, const TrainShape& shape, Report& report,
                        Tracer& tracer) {
  const unsigned threads = hardware_threads();
  set_global_pool_threads(threads);
  const XcFiles files = generate_xc_files(shape, opt);
  report.stamp("pool_width", std::to_string(threads));
  report.stamp("scale", opt.tiny ? "tiny" : "full");
  report.stamp("dataset", shape.name == "amazon" ? "amazon670k_like" : "wiki325k_like");
  report.stamp("train_examples", std::to_string(shape.data.num_train));
  report.stamp("epochs_per_run", std::to_string(shape.epochs));
  if (opt.trace) {
    run_traced(opt, shape, files, report, tracer);
    return;
  }

  const auto start = Clock::now();
  std::vector<double> setup_s, train_eps, eval_eps, p_at_5, query_us;
  std::uint64_t batches = 0, failed_batches = 0;
  for (std::size_t rep = 0; rep < 50; ++rep) {
    const auto t0 = Clock::now();
    TrainState st = set_up_training(shape, files, opt.seed);
    const auto t1 = Clock::now();
    tracer.add("core.setup", t0, t1);
    setup_s.push_back(seconds_between(t0, t1));

    const std::size_t n = st.train_examples();
    const std::size_t per_epoch = (n + shape.batch - 1) / shape.batch;
    for (std::size_t e = 1; e <= shape.epochs; ++e) {
      const double s = train_epoch(st);
      batches += per_epoch;
      if (!std::isfinite(st.trainer->last_avg_loss())) failed_batches += per_epoch;
      if (e > 1) train_eps.push_back(static_cast<double>(n) / s);
    }

    const auto e0 = Clock::now();
    p_at_5.push_back(st.trainer->evaluate_p_at_k(*st.test, 5));
    const auto e1 = Clock::now();
    tracer.add("core.evaluate", e0, e1);
    eval_eps.push_back(static_cast<double>(st.test->size()) / seconds_between(e0, e1));

    // Single-query latency of the trained network (dense top-5, one thread).
    Workspace ws = st.net->make_workspace(3);
    std::vector<std::uint32_t> top;
    const std::size_t nq = std::min<std::size_t>(st.test->size(), 1000);
    for (std::size_t q = 0; q < nq; ++q) {
      const auto q0 = Clock::now();
      st.net->predict_topk(st.test->features(q), 5, ws, top);
      query_us.push_back(seconds_between(q0, Clock::now()) * 1e6);
    }
    if (seconds_between(start, Clock::now()) > opt.seconds) break;
  }

  report.set("throughput_per_s", median(train_eps), "1/s", train_eps.size());
  report.set("eval_examples_per_s", median(eval_eps), "1/s", eval_eps.size());
  report.set("quality", median(p_at_5), "ratio", p_at_5.size());
  report.set("query_p50_us", quantile(query_us, 0.5), "us", query_us.size());
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("ok_ratio", 1.0 - static_cast<double>(failed_batches) / static_cast<double>(batches),
             "ratio", batches);
  report.add_ops(batches, failed_batches);

  if (failed_batches > 0) report.fail_gate("non-finite training loss");
  if (!(median(p_at_5) >= shape.p_at_5_floor)) {
    report.fail_gate("P@5 " + std::to_string(median(p_at_5)) + " below floor " +
                     std::to_string(shape.p_at_5_floor));
  }
}

}  // namespace perfbench
