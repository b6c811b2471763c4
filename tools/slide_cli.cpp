// slide_cli — command-line front end for the library.
//
//   slide_cli gen     --dataset amazon|wiki|text8 --scale 0.01 --out prefix
//   slide_cli train   --train f.txt --test f.txt [training flags] [--save m.bin]
//   slide_cli eval    --model m.bin --test f.txt [--topk 5]
//   slide_cli info    --model m.bin
//   slide_cli freeze  --model m.bin --out m.pk
//                     [--precision keep|fp32|bf16act|bf16all|int8]
//                     [--calib f.txt --calib-method absmax|percentile]
//   slide_cli predict --model m.pk --test f.txt [--topk 5] [--mode dense|sampled]
//   slide_cli serve   --model m.pk --port 7070 [batching flags]
//
// `gen` materializes a synthetic paper-statistics dataset in XC format (the
// same format the real Amazon-670K / WikiLSHTC-325K downloads use, so real
// files work everywhere a generated one does).  `freeze` packs a training
// checkpoint into an immutable serving snapshot; `predict` serves a test
// file from one and reports P@k plus QPS; `serve` runs the micro-batching
// TCP server over a packed model until SIGINT/SIGTERM, then drains and
// prints latency percentiles.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dense_network.h"
#include "cli/args.h"
#include "core/metrics.h"
#include "core/network.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/stream_reader.h"
#include "data/svm_reader.h"
#include "data/synthetic.h"
#include "data/text_corpus.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "threading/thread_pool.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/mem_info.h"
#include "util/timer.h"

namespace {

using namespace slide;

bool help_requested(const cli::ArgParser& args, int argc, const char* const* argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      std::printf("%s", args.help().c_str());
      return true;
    }
  }
  return false;
}

int cmd_gen(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli gen: write a synthetic XC-format dataset");
  args.add_string("dataset", "amazon", "amazon | wiki | text8");
  args.add_double("scale", 0.01, "fraction of the paper's dataset dimensions");
  args.add_int("examples", 0, "override train example count (amazon/wiki; 0 = scaled)");
  args.add_int("test-examples", 0, "override test example count (amazon/wiki; 0 = scaled)");
  args.add_required_string("out", "output prefix; writes <out>.train.txt/.test.txt");
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return 1;
  }
  const std::string kind = args.get_string("dataset");
  const double scale = args.get_double("scale");

  data::Dataset train(1, 1), test(1, 1);
  if (kind == "amazon" || kind == "wiki") {
    auto cfg = kind == "amazon" ? data::amazon670k_like(scale) : data::wiki325k_like(scale);
    // Example-count overrides decouple file length from model dimensions so
    // multi-chunk streaming fixtures stay cheap to generate (narrow model,
    // many records).
    if (args.get_int("examples") > 0) {
      cfg.num_train = static_cast<std::size_t>(args.get_int("examples"));
    }
    if (args.get_int("test-examples") > 0) {
      cfg.num_test = static_cast<std::size_t>(args.get_int("test-examples"));
    }
    auto pair = data::make_xc_datasets(cfg);
    train = std::move(pair.first);
    test = std::move(pair.second);
  } else if (kind == "text8") {
    data::CorpusConfig cfg = data::text8_like(scale);
    auto pair = data::make_skipgram_datasets(cfg, 0.8);
    train = std::move(pair.first);
    test = std::move(pair.second);
  } else {
    std::fprintf(stderr, "error: unknown dataset '%s'\n", kind.c_str());
    return 1;
  }

  const std::string prefix = args.get_string("out");
  data::write_xc_file(prefix + ".train.txt", train);
  data::write_xc_file(prefix + ".test.txt", test);
  std::printf("%s\n", data::format_stats(data::compute_stats(train), prefix + ".train.txt")
                          .c_str());
  std::printf("%s\n",
              data::format_stats(data::compute_stats(test), prefix + ".test.txt").c_str());
  return 0;
}

bool apply_common_system_flags(const cli::ArgParser& args) {
  if (args.was_set("threads")) {
    set_global_pool_threads(static_cast<unsigned>(args.get_int("threads")));
  }
  std::string error;
  if (!cli::apply_isa_flag(args, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

// A data file wider than the model would index past the input layer's
// weights; the command prints why and exits 1 instead.
bool fits_model(const std::string& path, const data::Dataset& d, std::size_t input_dim) {
  std::string error;
  if (cli::check_input_width(path, d.feature_dim(), input_dim, &error)) return true;
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return false;
}

int cmd_train(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli train: train a SLIDE model on XC-format data");
  args.add_required_string("train", "training file (XC format)");
  args.add_required_string("test", "test file (XC format)");
  args.add_int("hidden", 128, "hidden layer width");
  args.add_string("hash", "dwta", "output-layer sampling: dwta | simhash | none (dense)");
  args.add_int("k", 5, "hashes (DWTA) or bits (SimHash) per table");
  args.add_int("l", 50, "number of hash tables");
  args.add_int("min-active", 0, "active-set floor (0 = label_dim/32)");
  args.add_int("epochs", 5, "training epochs");
  args.add_int("batch", 256, "batch size");
  args.add_double("lr", 1e-3, "ADAM learning rate");
  args.add_string("precision", "fp32", "fp32 | bf16act | bf16all (int8 is freeze-time only)");
  args.add_string("shuffle", "batches", "none | batches | examples");
  args.add_string("maintenance", "rebuild", "hash-table upkeep: rebuild | incremental");
  args.add_int("rebuild-interval", 16, "batches between table refreshes");
  args.add_string("save", "", "write a checkpoint here after training");
  args.add_flag("stream", "stream the training set chunk-by-chunk from disk");
  args.add_int("chunk-mb", 8, "streaming chunk size in MiB");
  args.add_int("prefetch", 2, "streaming prefetch depth (parser threads + queue window)");
  args.add_int("threads", 0, "worker threads (default: all hardware threads)");
  args.add_int("metrics-port", -1,
               "expose training metrics at /metrics on 127.0.0.1:<port> "
               "(-1 = off, 0 = ephemeral; the bound port is printed)");
  cli::add_isa_flag(args);
  args.add_int("seed", 42, "random seed");
  args.add_flag("linear-hidden", "use a linear (word2vec-style) hidden layer");
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return 1;
  }
  if (!apply_common_system_flags(args)) return 1;

  const bool streaming = args.get_flag("stream");
  std::optional<data::StreamingDataset> stream;
  data::Dataset train(1, 1);
  if (streaming) {
    data::StreamingConfig scfg;
    scfg.chunk_bytes = static_cast<std::size_t>(
                           std::max<std::int64_t>(1, args.get_int("chunk-mb")))
                       << 20;
    scfg.prefetch =
        static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("prefetch")));
    stream.emplace(args.get_string("train"), scfg);
    std::printf("train (streaming): %zu examples declared, %.1f MiB on disk, "
                "%zu chunks, prefetch %zu\n",
                stream->declared_examples(),
                static_cast<double>(stream->file_bytes()) / (1024.0 * 1024.0),
                stream->num_chunks(), stream->config().prefetch);
  } else {
    train = data::read_xc_file(args.get_string("train"));
    std::printf("%s\n", data::format_stats(data::compute_stats(train), "train").c_str());
  }
  const data::Dataset test = data::read_xc_file(args.get_string("test"));
  const std::size_t feature_dim = streaming ? stream->feature_dim() : train.feature_dim();
  const std::size_t label_dim = streaming ? stream->label_dim() : train.label_dim();
  if (!fits_model(args.get_string("test"), test, feature_dim)) return 1;

  LshLayerConfig lsh;
  const std::string hash = args.get_string("hash");
  if (hash == "dwta") {
    lsh.kind = HashKind::Dwta;
  } else if (hash == "simhash") {
    lsh.kind = HashKind::SimHash;
  } else if (hash == "none") {
    lsh.kind = HashKind::None;
  } else {
    std::fprintf(stderr, "error: --hash must be dwta|simhash|none\n");
    return 1;
  }
  lsh.k = static_cast<int>(args.get_int("k"));
  lsh.l = static_cast<int>(args.get_int("l"));
  lsh.min_active = args.get_int("min-active") > 0
                       ? static_cast<std::size_t>(args.get_int("min-active"))
                       : std::max<std::size_t>(64, label_dim / 32);
  lsh.rebuild_interval = static_cast<std::size_t>(args.get_int("rebuild-interval"));
  lsh.maintenance = args.get_string("maintenance") == "incremental"
                        ? LshMaintenance::Incremental
                        : LshMaintenance::Rebuild;

  Precision precision = Precision::Fp32;
  if (!cli::parse_precision(args.get_string("precision"), &precision)) {
    std::fprintf(stderr, "error: %s\n",
                 cli::precision_usage_error(args.get_string("precision"), false).c_str());
    return 1;
  }
  if (precision == Precision::Int8) {
    std::fprintf(stderr,
                 "error: training never runs at int8; train at fp32/bf16 and use "
                 "`slide_cli freeze --precision int8`\n");
    return 1;
  }

  NetworkConfig ncfg = make_slide_mlp(feature_dim,
                                      static_cast<std::size_t>(args.get_int("hidden")),
                                      label_dim, lsh, precision,
                                      static_cast<std::uint64_t>(args.get_int("seed")));
  if (args.get_flag("linear-hidden")) ncfg.layers[0].activation = Activation::Linear;
  Network net(ncfg);
  std::printf("network: %zu parameters, backend=%s\n", net.num_params(),
              kernels::active_isa_name());

  TrainerConfig tcfg;
  tcfg.batch_size = static_cast<std::size_t>(args.get_int("batch"));
  tcfg.adam.lr = static_cast<float>(args.get_double("lr"));
  tcfg.epochs = static_cast<std::size_t>(args.get_int("epochs"));
  const std::string shuffle = args.get_string("shuffle");
  tcfg.shuffle = shuffle == "none" ? ShuffleMode::None
                 : shuffle == "examples" ? ShuffleMode::Examples
                                         : ShuffleMode::Batches;

  std::unique_ptr<obs::MetricsHttpServer> metrics_http;
  if (args.get_int("metrics-port") >= 0) {
    tcfg.metrics = &obs::MetricsRegistry::global();
    metrics_http = std::make_unique<obs::MetricsHttpServer>(
        obs::MetricsRegistry::global(), "127.0.0.1",
        static_cast<std::uint16_t>(args.get_int("metrics-port")));
    metrics_http->start();
    std::printf("metrics on 127.0.0.1:%u\n", metrics_http->port());
    std::fflush(stdout);
  }

  Trainer trainer(net, tcfg);
  const TrainResult result =
      streaming ? trainer.train(*stream, test) : trainer.train(train, test);
  for (const auto& e : result.history) {
    std::printf("epoch %zu: %.3fs  loss=%.4f  P@1=%.4f\n", e.epoch, e.train_seconds,
                e.avg_loss, e.p_at_1);
  }
  if (streaming) {
    // Accounting for the last epoch: how quickly training started and how
    // much of the loader the pipeline failed to hide behind compute.
    const StreamStats& ss = trainer.last_stream_stats();
    const double epoch_s = result.history.empty() ? 0.0
                                                  : result.history.back().train_seconds;
    const double overlap =
        epoch_s > 0.0 ? 1.0 - ss.loader_wait_seconds / epoch_s : 0.0;
    std::printf("streaming: first_batch=%.3fs first_chunk=%.3fs loader_wait=%.3fs "
                "overlap=%.1f%% chunks=%zu examples=%zu\n",
                ss.first_batch_seconds, ss.first_chunk_seconds, ss.loader_wait_seconds,
                100.0 * overlap, ss.chunks, ss.examples);
    std::printf("peak_rss: %.1f MiB\n",
                static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0));
  }
  std::printf("final: P@1=%.4f P@5=%.4f avg_epoch=%.3fs\n",
              trainer.evaluate_p_at_1(test, 5000), trainer.evaluate_p_at_k(test, 5, 5000),
              result.avg_epoch_seconds);

  const std::string save = args.get_string("save");
  if (!save.empty()) {
    save_network_file(net, save);
    std::printf("checkpoint written to %s\n", save.c_str());
  }
  return 0;
}

int cmd_eval(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli eval: evaluate a checkpoint on XC-format data");
  args.add_required_string("model", "checkpoint from `slide_cli train --save`");
  args.add_required_string("test", "test file (XC format)");
  args.add_int("topk", 5, "report P@1..P@k");
  args.add_int("max-examples", 0, "evaluation cap (0 = all)");
  args.add_int("threads", 0, "worker threads");
  cli::add_isa_flag(args);
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return 1;
  }
  if (!apply_common_system_flags(args)) return 1;

  Network net = load_network_file(args.get_string("model"));
  const data::Dataset test = data::read_xc_file(args.get_string("test"));
  if (!fits_model(args.get_string("test"), test, net.input_dim())) return 1;
  Trainer trainer(net, {});
  const auto max_examples = static_cast<std::size_t>(args.get_int("max-examples"));
  for (std::int64_t k = 1; k <= args.get_int("topk"); ++k) {
    std::printf("P@%lld = %.4f\n", static_cast<long long>(k),
                trainer.evaluate_p_at_k(test, static_cast<std::size_t>(k), max_examples));
  }
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli info: describe a checkpoint");
  args.add_required_string("model", "checkpoint file");
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return 1;
  }
  Network net = load_network_file(args.get_string("model"));
  const NetworkConfig& cfg = net.config();
  std::printf("input_dim: %zu\nprecision: %s\nadam steps: %llu\nparameters: %zu\n",
              cfg.input_dim, cli::precision_name(cfg.precision),
              static_cast<unsigned long long>(net.adam_steps()), net.num_params());
  for (std::size_t i = 0; i < cfg.layers.size(); ++i) {
    const LayerConfig& lc = cfg.layers[i];
    std::printf("layer %zu: dim=%zu act=%s", i, lc.dim,
                lc.activation == Activation::ReLU      ? "relu"
                : lc.activation == Activation::Softmax ? "softmax"
                                                       : "linear");
    if (lc.lsh.kind != HashKind::None) {
      std::printf(" lsh=%s k=%d l=%d cap=%u min_active=%zu",
                  lc.lsh.kind == HashKind::Dwta ? "dwta" : "simhash", lc.lsh.k, lc.lsh.l,
                  lc.lsh.bucket_capacity, lc.lsh.min_active);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_freeze(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli freeze: pack a checkpoint into a serving snapshot");
  args.add_required_string("model", "checkpoint from `slide_cli train --save`");
  args.add_required_string("out", "output packed-model file");
  args.add_string("precision", "keep",
                  "serving precision: keep | fp32 | bf16act | bf16all | int8");
  args.add_string("calib", "", "calibration file (XC format; required for int8)");
  args.add_string("calib-method", "absmax", "int8 activation range: absmax | percentile");
  args.add_double("calib-percentile", 0.999, "quantile of |v| for --calib-method percentile");
  args.add_int("calib-samples", 512, "max calibration examples consumed");
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return 1;
  }

  const Network net = load_network_file(args.get_string("model"));
  Precision precision = net.precision();
  const std::string p = args.get_string("precision");
  if (p != "keep" && !cli::parse_precision(p, &precision)) {
    std::fprintf(stderr, "error: %s\n", cli::precision_usage_error(p, true).c_str());
    return 1;
  }

  std::optional<infer::PackedModel> packed;
  if (precision == Precision::Int8) {
    if (args.get_string("calib").empty()) {
      std::fprintf(stderr, "error: --precision int8 requires --calib <xc file>\n");
      return 1;
    }
    infer::CalibrationConfig cal;
    const std::string method = args.get_string("calib-method");
    if (method == "absmax") {
      cal.method = infer::CalibrationMethod::AbsMax;
    } else if (method == "percentile") {
      cal.method = infer::CalibrationMethod::Percentile;
    } else {
      std::fprintf(stderr, "error: --calib-method must be absmax|percentile\n");
      return 1;
    }
    cal.percentile = args.get_double("calib-percentile");
    cal.max_samples =
        static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("calib-samples")));
    const data::Dataset calib = data::read_xc_file(args.get_string("calib"));
    if (!fits_model(args.get_string("calib"), calib, net.input_dim())) return 1;
    std::vector<data::SparseVectorView> views;
    views.reserve(calib.size());
    for (std::size_t i = 0; i < calib.size(); ++i) views.push_back(calib.features(i));
    packed.emplace(infer::PackedModel::freeze(net, precision, views, cal));
  } else {
    packed.emplace(infer::PackedModel::freeze(net, precision));
  }
  packed->save_file(args.get_string("out"));
  std::printf("packed %zu parameters at %s (%.1f MiB serving arena) to %s\n",
              packed->num_params(), cli::precision_name(packed->precision()),
              static_cast<double>(packed->arena_bytes()) / (1024.0 * 1024.0),
              args.get_string("out").c_str());
  return 0;
}

int cmd_predict(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli predict: serve a test file from a packed model");
  args.add_required_string("model", "packed model from `slide_cli freeze`");
  args.add_required_string("test", "test file (XC format)");
  args.add_int("topk", 5, "report P@1..P@k");
  args.add_string("mode", "dense", "dense (exact) | sampled (LSH candidates)");
  args.add_int("batch", 256, "queries per engine batch (0 = one query at a time)");
  args.add_int("max-examples", 0, "serving cap (0 = all)");
  args.add_int("threads", 0, "worker threads");
  cli::add_isa_flag(args);
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return 1;
  }
  if (!apply_common_system_flags(args)) return 1;

  const std::string mode_name = args.get_string("mode");
  if (mode_name != "dense" && mode_name != "sampled") {
    std::fprintf(stderr, "error: --mode must be dense|sampled\n");
    return 1;
  }
  const infer::TopKMode mode =
      mode_name == "sampled" ? infer::TopKMode::Sampled : infer::TopKMode::Dense;

  const infer::PackedModel packed = infer::PackedModel::load_file(args.get_string("model"));
  infer::InferenceEngine engine(packed);
  const data::Dataset test = data::read_xc_file(args.get_string("test"));
  if (!fits_model(args.get_string("test"), test, packed.input_dim())) return 1;
  std::size_t n = test.size();
  if (args.get_int("max-examples") > 0) {
    n = std::min(n, static_cast<std::size_t>(args.get_int("max-examples")));
  }
  const std::size_t k = std::max<std::size_t>(1, static_cast<std::size_t>(args.get_int("topk")));
  std::printf("model: %zu params, precision=%s, mode=%s, backend=%s, %zu queries\n",
              packed.num_params(), cli::precision_name(packed.precision()),
              mode_name.c_str(), kernels::active_isa_name(), n);

  std::vector<std::uint32_t> ids(n * k, infer::InferenceEngine::kInvalidId);
  const std::size_t batch = static_cast<std::size_t>(args.get_int("batch"));
  Timer timer;
  if (batch == 0) {
    std::vector<std::uint32_t> one;
    for (std::size_t i = 0; i < n; ++i) {
      engine.predict_topk(test.features(i), k, one, mode);
      std::copy(one.begin(), one.end(), ids.begin() + i * k);
    }
  } else {
    std::vector<data::SparseVectorView> views;
    views.reserve(batch);
    for (std::size_t begin = 0; begin < n; begin += batch) {
      const std::size_t end = std::min(n, begin + batch);
      views.clear();
      for (std::size_t i = begin; i < end; ++i) views.push_back(test.features(i));
      engine.predict_topk_batch(views, k, ids.data() + begin * k, nullptr, mode);
    }
  }
  const double seconds = timer.seconds();

  for (std::size_t kk = 1; kk <= k; ++kk) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // kInvalidId padding never matches a label, so the padded row gives
      // the standard |topk ∩ labels| / k even for short candidate sets.
      total += precision_at_k({ids.data() + i * k, kk}, test.labels(i));
    }
    std::printf("P@%zu = %.4f\n", kk, total / static_cast<double>(n));
  }
  std::printf("served %zu queries in %.3fs  (%.0f QPS)\n", n, seconds,
              static_cast<double>(n) / seconds);
  return 0;
}

volatile std::sig_atomic_t g_shutdown_signal = 0;
extern "C" void handle_shutdown_signal(int) { g_shutdown_signal = 1; }

// Distinct exit codes so supervisors can tell a corrupt model from a taken
// port without parsing stderr.
constexpr int kServeExitUsage = 1;
constexpr int kServeExitModelUnreadable = 2;  // bad path / permissions
constexpr int kServeExitModelCorrupt = 3;     // bad magic/version/checksum
constexpr int kServeExitBindFailure = 4;      // bind/listen failed

int cmd_serve(int argc, const char* const* argv) {
  cli::ArgParser args("slide_cli serve: micro-batching TCP server over a packed model");
  args.add_required_string("model", "packed model from `slide_cli freeze`");
  args.add_int("port", 7070, "TCP port (0 = ephemeral; the bound port is logged)");
  args.add_string("bind", "127.0.0.1", "bind address");
  args.add_int("topk", 5, "ids per reply (per-request k is capped here)");
  args.add_string("mode", "dense", "dense (exact) | sampled (LSH candidates)");
  args.add_int("batch-max", 64,
               "largest batch: an idle dispatcher takes up to this many queued requests");
  args.add_int("queue-cap", 1024,
               "bounded request-queue capacity; a full queue answers Overloaded");
  args.add_int("idle-timeout-ms", 0, "close idle connections after this (0 = never)");
  args.add_int("reactors", 0, "epoll reactor threads (0 = min(4, hw threads))");
  args.add_int("write-cap-bytes", 0,
               "disconnect a peer whose unread reply backlog exceeds this "
               "(0 = default 16 MiB)");
  args.add_double("degrade-fill", 0.75,
                  "queue fill fraction that degrades dense top-k to the "
                  "sampled path (>= 1.0 disables)");
  args.add_int("degrade-p99-us", 0, "p99 latency that also trips degradation (0 = off)");
  args.add_flag("no-degrade", "never downgrade dense top-k under load");
  args.add_string("faults", "", "fault-injection spec (same syntax as SLIDE_FAULTS)");
  args.add_int("metrics-port", -1,
               "expose Prometheus metrics at /metrics on <bind>:<port> "
               "(-1 = off, 0 = ephemeral; the bound port is printed)");
  args.add_int("trace-sample", 0,
               "log one per-stage request trace every N completed requests (0 = off)");
  args.add_int("threads", 0, "worker threads");
  cli::add_isa_flag(args);
  if (help_requested(args, argc, argv)) return 0;
  if (!args.parse(argc, argv, 2)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(), args.help().c_str());
    return kServeExitUsage;
  }
  if (!apply_common_system_flags(args)) return kServeExitUsage;

  const std::string mode_name = args.get_string("mode");
  if (mode_name != "dense" && mode_name != "sampled") {
    std::fprintf(stderr, "error: --mode must be dense|sampled\n");
    return kServeExitUsage;
  }
  if (args.get_int("port") < 0 || args.get_int("port") > 65535) {
    std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
    return kServeExitUsage;
  }
  if (args.get_int("metrics-port") > 65535) {
    std::fprintf(stderr, "error: --metrics-port must be in [0, 65535] (or -1 = off)\n");
    return kServeExitUsage;
  }
  if (!args.get_string("faults").empty()) {
    std::string error;
    if (!util::FaultInjector::instance().configure(args.get_string("faults"), &error)) {
      std::fprintf(stderr, "error: --faults: %s\n", error.c_str());
      return kServeExitUsage;
    }
  }

  // Install before the model load so an early SIGTERM still exits cleanly.
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);

  infer::PackedModel packed = [&] {
    try {
      return infer::PackedModel::load_file(args.get_string("model"));
    } catch (const infer::ModelIoError& e) {
      std::fprintf(stderr, "error: cannot read model: %s\n", e.what());
      std::exit(kServeExitModelUnreadable);
    } catch (const infer::ModelIntegrityError& e) {
      std::fprintf(stderr, "error: model failed integrity checks: %s\n", e.what());
      std::exit(kServeExitModelCorrupt);
    }
  }();
  infer::InferenceEngine engine(packed);

  serve::ServerConfig scfg;
  scfg.policy.max_batch_size = static_cast<std::size_t>(std::max<std::int64_t>(
      1, args.get_int("batch-max")));
  scfg.queue_capacity = static_cast<std::size_t>(std::max<std::int64_t>(
      1, args.get_int("queue-cap")));
  scfg.k = static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("topk")));
  scfg.mode = mode_name == "sampled" ? infer::TopKMode::Sampled : infer::TopKMode::Dense;
  scfg.pressure.degrade_fill = args.get_double("degrade-fill");
  scfg.pressure.degrade_p99_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, args.get_int("degrade-p99-us")));
  scfg.pressure.allow_degrade = !args.get_flag("no-degrade");
  // One process-global registry: the batching core, the wire transport, and
  // the /metrics listener all see the same families.
  scfg.metrics = &obs::MetricsRegistry::global();
  serve::BatchingServer server(engine, scfg);

  serve::TransportConfig tcfg;
  tcfg.bind_address = args.get_string("bind");
  tcfg.port = static_cast<std::uint16_t>(args.get_int("port"));
  tcfg.idle_timeout_ms = static_cast<int>(std::max<std::int64_t>(
      0, args.get_int("idle-timeout-ms")));
  tcfg.reactors = static_cast<int>(std::max<std::int64_t>(0, args.get_int("reactors")));
  if (args.get_int("write-cap-bytes") > 0) {
    tcfg.max_write_backlog_bytes =
        static_cast<std::size_t>(args.get_int("write-cap-bytes"));
  }
  tcfg.trace_sample = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, args.get_int("trace-sample")));
  std::unique_ptr<serve::ServerTransport> tcp;
  try {
    tcp = serve::make_transport(serve::TransportKind::Epoll, server, tcfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot bind %s:%lld: %s\n", tcfg.bind_address.c_str(),
                 static_cast<long long>(args.get_int("port")), e.what());
    return kServeExitBindFailure;
  }

  log_info("serve: model=", args.get_string("model"), " params=", packed.num_params(),
           " mode=", mode_name, " backend=", kernels::active_isa_name());
  log_info("serve: batch-max=", scfg.policy.max_batch_size,
           " queue-cap=", scfg.queue_capacity,
           " degrade-fill=", scfg.pressure.degrade_fill,
           " idle-timeout-ms=", tcfg.idle_timeout_ms);

  std::unique_ptr<obs::MetricsHttpServer> metrics_http;
  if (args.get_int("metrics-port") >= 0) {
    try {
      metrics_http = std::make_unique<obs::MetricsHttpServer>(
          obs::MetricsRegistry::global(), tcfg.bind_address,
          static_cast<std::uint16_t>(args.get_int("metrics-port")));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot bind metrics port: %s\n", e.what());
      return kServeExitBindFailure;
    }
    metrics_http->start();
  }

  tcp->start();
  // The port line is the startup handshake scripts wait for (CI greps it).
  std::printf("serving on %s:%u\n", tcfg.bind_address.c_str(), tcp->port());
  if (metrics_http != nullptr) {
    std::printf("metrics on %s:%u\n", metrics_http->bind_address().c_str(),
                metrics_http->port());
  }
  std::fflush(stdout);

  while (g_shutdown_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  log_info("serve: shutdown signal received; draining");
  tcp->stop();  // joins connections, then drains the batching core

  if (metrics_http != nullptr) metrics_http->stop();

  const serve::ServerStats stats = server.stats();
  const serve::TransportStats tstats = tcp->stats();
  std::fputs(serve::format_server_stats(stats, &tstats).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::CommandSet commands(
      "slide_cli", {"gen", "train", "eval", "info", "freeze", "predict", "serve"});
  if (argc < 2) {
    std::fprintf(stderr, "%s", commands.usage_error("").c_str());
    return 1;
  }
  const std::string command = argv[1];
  if (!commands.contains(command)) {
    std::fprintf(stderr, "%s", commands.usage_error(command).c_str());
    return 1;
  }
  try {
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "train") return cmd_train(argc, argv);
    if (command == "eval") return cmd_eval(argc, argv);
    if (command == "info") return cmd_info(argc, argv);
    if (command == "freeze") return cmd_freeze(argc, argv);
    if (command == "predict") return cmd_predict(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 1;  // unreachable: every known command returned above
}
