#include "probes.h"

#include <algorithm>
#include <functional>

#include "data/stream_reader.h"
#include "kernels/kernels.h"
#include "lsh/sampler.h"
#include "threading/thread_pool.h"
#include "util/aligned.h"
#include "util/bf16.h"
#include "util/rng.h"

namespace perfbench {

using namespace slide;

namespace {

// Median seconds per call of `fn`, timed in blocks of calls until `budget_s`
// has passed (at least three blocks).
double time_per_call(const std::function<void()>& fn, double budget_s) {
  fn();  // warm caches and lazy state
  std::vector<double> per_call;
  std::size_t reps = 1;
  const auto start = Clock::now();
  while (per_call.size() < 3 || seconds_between(start, Clock::now()) < budget_s) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double s = seconds_between(t0, Clock::now());
    if (s < 1e-4) {
      reps *= 4;  // block too short to time well: grow it, don't record
      continue;
    }
    per_call.push_back(s / static_cast<double>(reps));
    if (per_call.size() > 200) break;
  }
  return median(per_call);
}

void report_kernel(Report& report, const std::string& name, bool bandwidth_bound,
                   double flops, double bytes, double s_per_call, std::size_t samples) {
  const std::string base = "kernels." + name;
  if (bandwidth_bound) {
    report.set(base + ".gbps", bytes / s_per_call / 1e9, "GB/s", samples);
  } else {
    report.set(base + ".gflops", flops / s_per_call / 1e9, "GFLOP/s", samples);
  }
  report.set(base + ".flops_per_call", flops, "count");
  report.set(base + ".bytes_per_call", bytes, "bytes");
}

}  // namespace

void probe_kernels(const KernelShape& shape, std::uint64_t seed, double budget_s,
                   Tracer& tracer, Report& report) {
  Rng rng(mix64(seed, 0xCE41));
  const std::size_t L = shape.labels, H = shape.hidden, D = shape.input_dim;
  const std::size_t nnz = std::clamp<std::size_t>(shape.nnz, 1, D);

  AlignedVector<float> w(L * H), x(H), out(L);
  AlignedVector<bf16> w16(L * H), x16(H);
  AlignedVector<std::int8_t> w8(L * H);
  AlignedVector<std::uint8_t> x8(H);
  AlignedVector<std::int32_t> out32(L);
  for (std::size_t i = 0; i < L * H; ++i) {
    w[i] = rng.normal_float() * 0.05f;
    w8[i] = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) - 127);
  }
  kernels::fp32_to_bf16(w.data(), w16.data(), L * H);
  for (std::size_t i = 0; i < H; ++i) {
    x[i] = rng.uniform_float();
    x8[i] = static_cast<std::uint8_t>(rng.uniform_u64(128));
  }
  kernels::fp32_to_bf16(x.data(), x16.data(), H);

  // One sparse example over the first layer's input width (sorted, unique).
  std::vector<std::uint32_t> idx;
  const std::size_t stride = D / nnz;
  for (std::size_t k = 0; k < nnz; ++k) {
    idx.push_back(static_cast<std::uint32_t>(k * stride + rng.uniform_u64(stride)));
  }
  std::vector<float> val(nnz);
  for (auto& v : val) v = 0.5f + rng.uniform_float();
  // ADAM's cost does not depend on the values (it zeroes g as it goes).
  AlignedVector<float> row(D), m(D), v(D), g(D, 1e-3f);
  AlignedVector<bf16> row16(D);
  for (std::size_t i = 0; i < D; ++i) row[i] = rng.normal_float() * 0.05f;
  kernels::fp32_to_bf16(row.data(), row16.data(), D);

  const double each = budget_s / 7.0;
  const double lh = static_cast<double>(L * H);
  const double dd = static_cast<double>(D);
  const double nz = static_cast<double>(nnz);
  struct Probe {
    const char* name;
    bool bandwidth_bound;
    double flops, bytes;
    std::function<void()> fn;
  };
  volatile float sink = 0.0f;  // keeps the sparse dots from being discarded
  const Probe probes[] = {
      {"dot_rows_f32", false, 2 * lh, lh * 4 + H * 4.0 + L * 4.0,
       [&] { kernels::dot_rows_f32(w.data(), H, nullptr, L, x.data(), H, out.data()); }},
      {"sparse_dot_f32", false, 2 * nz, nz * 12,
       [&] { sink = kernels::sparse_dot_f32(idx.data(), val.data(), nnz, row.data()); }},
      {"scatter_axpy_f32", false, 2 * nz, nz * 16,
       [&] { kernels::scatter_axpy_f32(1e-6f, idx.data(), val.data(), nnz, row.data()); }},
      {"adam_step_f32", true, 14 * dd, 32 * dd,
       [&] {
         kernels::adam_step_f32(row.data(), m.data(), v.data(), g.data(), D, 1e-3f, 0.9f,
                                0.999f, 1e-8f, 10.0f, 1000.0f);
       }},
      {"dot_rows_wbf16_xbf16", false, 2 * lh, lh * 2 + H * 2.0 + L * 4.0,
       [&] {
         kernels::dot_rows_wbf16_xbf16(w16.data(), H, nullptr, L, x16.data(), H, out.data());
       }},
      {"adam_step_bf16", true, 14 * dd, 28 * dd,
       [&] {
         kernels::adam_step_bf16(row16.data(), m.data(), v.data(), g.data(), D, 1e-3f, 0.9f,
                                 0.999f, 1e-8f, 10.0f, 1000.0f);
       }},
      {"dot_rows_u8s8", false, 2 * lh, lh + H + L * 4.0,
       [&] { kernels::dot_rows_u8s8(w8.data(), H, nullptr, L, x8.data(), H, out32.data()); }},
  };
  for (const Probe& p : probes) {
    const auto t0 = Clock::now();
    const double s = time_per_call(p.fn, each);
    tracer.add("kernels.probe", t0, Clock::now());
    report_kernel(report, p.name, p.bandwidth_bound, p.flops, p.bytes, s, 1);
  }
}

void probe_lsh(Network& net, const lsh::HashFamily& family, const lsh::LshTables& tables,
               const data::Dataset& queries, Tracer& tracer, Report& report) {
  const std::size_t n = std::min<std::size_t>(queries.size(), 512);
  const Layer& out_layer = net.layer(net.num_layers() - 1);
  Workspace ws = net.make_workspace(7);
  std::vector<std::vector<float>> hidden(n);
  for (std::size_t i = 0; i < n; ++i) {
    net.forward(queries.features(i), {}, ws, /*train=*/false);
    const auto& act = ws.layers[net.num_layers() - 2].act;
    hidden[i].assign(act.begin(), act.end());
  }

  const lsh::SamplerLimits limits{out_layer.config().lsh.min_active,
                                  out_layer.config().lsh.max_active};
  lsh::SamplerScratch scratch(11);
  std::vector<std::uint32_t> buckets(family.num_tables());
  std::vector<std::uint32_t> active, probed;
  std::vector<std::uint8_t> seen(out_layer.dim());
  double hash_s = 0.0, select_s = 0.0;
  std::size_t candidates = 0, labels_total = 0, labels_found = 0;
  const auto span_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    family.hash_dense(hidden[i].data(), buckets.data());
    const auto t1 = Clock::now();
    lsh::select_active_set(tables, buckets.data(), {}, out_layer.dim(), limits, scratch,
                           active);
    const auto t2 = Clock::now();
    hash_s += seconds_between(t0, t1);
    select_s += seconds_between(t1, t2);
    candidates += active.size();

    // Bucket-only recall: labels present in the probed buckets, no forcing
    // and no random top-up.
    probed.clear();
    tables.query(buckets.data(), probed);
    for (const std::uint32_t id : probed) seen[id] = 1;
    for (const std::uint32_t l : queries.labels(i)) {
      ++labels_total;
      labels_found += seen[l];
    }
    for (const std::uint32_t id : probed) seen[id] = 0;
  }
  tracer.add("lsh.query_probe", span_start, Clock::now());

  std::size_t max_bucket = 0;
  for (std::size_t t = 0; t < tables.num_tables(); ++t) {
    max_bucket = std::max(max_bucket, tables.stats(t).max_bucket_size);
  }
  std::vector<double> rebuild_ms;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    net.rebuild_hash_tables(&global_pool());
    const auto t1 = Clock::now();
    tracer.add("lsh.rebuild", t0, t1);
    rebuild_ms.push_back(seconds_between(t0, t1) * 1e3);
  }

  const double dn = static_cast<double>(std::max<std::size_t>(1, n));
  report.set("lsh.hash_us_per_query", hash_s * 1e6 / dn, "us", n);
  report.set("lsh.select_us_per_query", select_s * 1e6 / dn, "us", n);
  report.set("lsh.candidates_per_query", static_cast<double>(candidates) / dn, "count", n);
  report.set("lsh.label_recall",
             labels_total == 0 ? 0.0
                               : static_cast<double>(labels_found) /
                                     static_cast<double>(labels_total),
             "ratio", labels_total);
  report.set("lsh.rebuild_ms", median(rebuild_ms), "ms", rebuild_ms.size());
  report.set("lsh.max_bucket", static_cast<double>(max_bucket), "count");
}

void probe_parse(const std::string& path, std::size_t chunk_bytes, Tracer& tracer,
                 Report& report) {
  data::StreamingConfig cfg;
  cfg.chunk_bytes = chunk_bytes;
  data::StreamingDataset ds(path, cfg);
  std::vector<double> mbps;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    data::ChunkStream stream = ds.begin_epoch(1, static_cast<std::uint64_t>(r + 1), false);
    std::size_t examples = 0;
    while (std::optional<data::Dataset> chunk = stream.next()) examples += chunk->size();
    const auto t1 = Clock::now();
    tracer.add("data.parse_epoch", t0, t1);
    if (examples == 0) continue;
    mbps.push_back(static_cast<double>(ds.file_bytes()) / 1e6 / seconds_between(t0, t1));
  }
  report.set("data.parse_mb_per_s", median(mbps), "MB/s", mbps.size());
}

void probe_infer(infer::InferenceEngine& engine, infer::TopKMode mode,
                 const data::Dataset& queries, std::size_t batch, Tracer& tracer,
                 Report& report) {
  const std::size_t n = std::min<std::size_t>(queries.size(), 1024);
  std::vector<double> query_us;
  std::vector<std::uint32_t> ids;
  auto t_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    engine.predict_topk(queries.features(i), 5, ids, mode);
    query_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  tracer.add("infer.query_probe", t_start, Clock::now());

  batch = std::clamp<std::size_t>(batch, 1, n);
  std::vector<data::SparseVectorView> xs;
  for (std::size_t i = 0; i < batch; ++i) xs.push_back(queries.features(i));
  std::vector<std::uint32_t> out(batch * 5);
  t_start = Clock::now();
  const double s = time_per_call(
      [&] { engine.predict_topk_batch(xs, 5, out.data(), nullptr, mode); }, 0.3);
  tracer.add("infer.batch_probe", t_start, Clock::now());

  report.set("infer.query_us", median(query_us), "us", query_us.size());
  report.set("infer.batch_us", s * 1e6, "us");
  report.set("infer.batch_queries", static_cast<double>(batch), "count");
}

}  // namespace perfbench
