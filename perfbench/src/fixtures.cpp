#include "fixtures.h"

#include <algorithm>
#include <thread>

#include "data/svm_reader.h"
#include "report.h"
#include "util/rng.h"

namespace perfbench {

using namespace slide;

namespace {

void common_lsh(TrainShape& s) {
  s.lsh.kind = HashKind::Dwta;
  s.lsh.k = 5;
  s.lsh.l = 50;
  s.lsh.bucket_capacity = 128;
  s.lsh.min_active = std::max<std::size_t>(64, s.data.label_dim / 32);
  s.lsh.max_active = std::max<std::size_t>(512, s.data.label_dim / 8);
  s.lsh.rebuild_interval = 8;
  s.lsh.rebuild_growth = 1.5;
}

}  // namespace

TrainShape amazon_shape(const Options& opt) {
  TrainShape s;
  s.name = "amazon";
  s.data = data::amazon670k_like(opt.tiny ? 0.002 : 0.02);
  s.data.num_train = std::min<std::size_t>(s.data.num_train, 12000);
  s.data.num_test = std::min<std::size_t>(s.data.num_test, 4000);
  s.data.seed = mix64(opt.seed, 670);
  s.batch = opt.tiny ? 256 : 1024;
  s.epochs = opt.tiny ? 2 : 3;
  s.p_at_5_floor = opt.tiny ? 0.02 : 0.2;
  common_lsh(s);
  return s;
}

TrainShape wiki_shape(const Options& opt) {
  TrainShape s;
  s.name = "wiki";
  s.data = data::wiki325k_like(opt.tiny ? 0.002 : 0.02);
  s.data.num_train = std::min<std::size_t>(s.data.num_train, opt.tiny ? 3000 : 16000);
  s.data.num_test = std::min<std::size_t>(s.data.num_test, opt.tiny ? 500 : 4000);
  s.data.seed = mix64(opt.seed, 325);
  s.batch = 256;
  s.precision = Precision::Bf16All;
  s.streaming = true;
  s.epochs = opt.tiny ? 2 : 3;
  s.chunk_bytes = opt.tiny ? (64u << 10) : (512u << 10);
  s.p_at_5_floor = opt.tiny ? 0.02 : 0.15;
  common_lsh(s);
  return s;
}

XcFiles generate_xc_files(const TrainShape& shape, const Options& opt) {
  auto [train, test] = data::make_xc_datasets(shape.data);
  XcFiles f;
  f.train_path = opt.workdir + "/" + shape.name + ".train.txt";
  f.test_path = opt.workdir + "/" + shape.name + ".test.txt";
  data::write_xc_file(f.train_path, train);
  data::write_xc_file(f.test_path, test);
  return f;
}

std::size_t TrainState::train_examples() const {
  return train ? train->size() : stream->declared_examples();
}

TrainState set_up_training(const TrainShape& shape, const XcFiles& files,
                           std::uint64_t seed) {
  TrainState st;
  std::size_t input_dim = 0;
  std::size_t labels = 0;
  if (shape.streaming) {
    data::StreamingConfig scfg;
    scfg.chunk_bytes = shape.chunk_bytes;
    st.stream = std::make_unique<data::StreamingDataset>(files.train_path, scfg);
    input_dim = st.stream->feature_dim();
    labels = st.stream->label_dim();
  } else {
    st.train = std::make_unique<data::Dataset>(data::read_xc_file(files.train_path));
    input_dim = st.train->feature_dim();
    labels = st.train->label_dim();
  }
  st.test = std::make_unique<data::Dataset>(data::read_xc_file(files.test_path));
  st.net = std::make_unique<Network>(
      make_slide_mlp(input_dim, shape.hidden, labels, shape.lsh, shape.precision, 42));
  st.tcfg.batch_size = shape.batch;
  st.tcfg.adam.lr = shape.lr;
  st.tcfg.epochs = shape.epochs;
  st.tcfg.seed = mix64(seed, 0x7E41);
  st.trainer = std::make_unique<Trainer>(*st.net, st.tcfg);
  return st;
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
