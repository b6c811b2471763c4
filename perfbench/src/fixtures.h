// Workload inputs: the synthetic XC datasets each workload generates from
// its seed, the files they are written to, and the network/trainer settings
// (the bench_common.h shapes for Amazon-670K and WikiLSHTC-325K).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/network.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/stream_reader.h"
#include "data/synthetic.h"

namespace perfbench {

struct Options;

struct TrainShape {
  std::string name;  // "amazon" | "wiki"
  slide::data::SyntheticConfig data;
  std::size_t hidden = 128;
  std::size_t batch = 1024;
  float lr = 3e-3f;
  slide::LshLayerConfig lsh;
  slide::Precision precision = slide::Precision::Fp32;
  std::size_t epochs = 3;            // fixed budget per training repetition
  bool streaming = false;
  std::size_t chunk_bytes = 512u << 10;
  double p_at_5_floor = 0.0;         // correctness gate, well under the seed's value
};

// Amazon-670K-like: hidden 128, DWTA K=5 L=50, batch 1024, fp32.
TrainShape amazon_shape(const Options& opt);
// WikiLSHTC-325K-like: 32k-wide sparse input, batch 256, Bf16All, streamed.
TrainShape wiki_shape(const Options& opt);

// The generated inputs on disk: train/test splits in XC format.
struct XcFiles {
  std::string train_path;
  std::string test_path;
};
XcFiles generate_xc_files(const TrainShape& shape, const Options& opt);

// Everything a user has to build before the first training step: the
// datasets read from the XC files (or the streaming index over the
// training file), the network with its initial hash tables, and a trainer.
struct TrainState {
  std::unique_ptr<slide::data::Dataset> train;               // eager only
  std::unique_ptr<slide::data::StreamingDataset> stream;     // streaming only
  std::unique_ptr<slide::data::Dataset> test;
  std::unique_ptr<slide::Network> net;
  std::unique_ptr<slide::Trainer> trainer;
  slide::TrainerConfig tcfg;

  std::size_t train_examples() const;
};
TrainState set_up_training(const TrainShape& shape, const XcFiles& files,
                           std::uint64_t seed);

unsigned hardware_threads();

}  // namespace perfbench
