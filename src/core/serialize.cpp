#include "core/serialize.h"

#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serialize_io.h"
#include "threading/thread_pool.h"

namespace slide {
namespace {

using io::read_array;
using io::read_layer_config;
using io::read_pod;
using io::write_array;
using io::write_layer_config;
using io::write_pod;

constexpr std::uint32_t kMagic = 0x534C444Eu;  // "SLDN"

// One weight-shaped arena of L, in file order (see serialize_io.h).
template <typename T>
void write_arena(std::ostream& out, const Layer& L, std::span<const T> arena) {
  std::vector<T> staged;
  write_array(out, io::to_file_order(arena.data(), L.dim(), L.input_dim(), L.feature_major(),
                                     staged),
              arena.size());
}

template <typename T>
void read_arena(std::istream& in, const Layer& L, std::span<T> arena) {
  std::vector<T> staged;
  io::read_file_order(in, arena.data(), L.dim(), L.input_dim(), L.feature_major(), staged);
}

}  // namespace

void save_network(const Network& net, std::ostream& out, bool include_moments) {
  const NetworkConfig& cfg = net.config();
  write_pod(out, kMagic);
  write_pod(out, kCheckpointVersion);
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.precision));
  write_pod<std::uint64_t>(out, cfg.input_dim);
  write_pod<std::uint64_t>(out, cfg.seed);
  write_pod<std::uint64_t>(out, net.adam_steps());
  write_pod<std::uint64_t>(out, cfg.layers.size());
  for (const auto& lc : cfg.layers) write_layer_config(out, lc);
  write_pod<std::uint8_t>(out, include_moments ? 1 : 0);

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const Layer& L = net.layer(i);
    if (cfg.precision == Precision::Bf16All) {
      write_arena(out, L, L.weights_bf16());
    } else {
      write_arena(out, L, L.weights_f32());
    }
    write_array(out, L.biases().data(), L.biases().size());
    if (include_moments) {
      write_arena(out, L, L.moment1());
      write_arena(out, L, L.moment2());
      write_array(out, L.bias_moment1().data(), L.bias_moment1().size());
      write_array(out, L.bias_moment2().data(), L.bias_moment2().size());
    }
  }
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

Network load_network(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  if (read_pod<std::uint32_t>(in) != kCheckpointVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  NetworkConfig cfg;
  // Int8 is a serving-only precision: no Network trains at it.
  cfg.precision = io::read_enum(in, Precision::Bf16All, "precision");
  cfg.input_dim = read_pod<std::uint64_t>(in);
  cfg.seed = read_pod<std::uint64_t>(in);
  const std::uint64_t adam_t = read_pod<std::uint64_t>(in);
  const std::uint64_t num_layers = read_pod<std::uint64_t>(in);
  for (std::uint64_t i = 0; i < num_layers; ++i) cfg.layers.push_back(read_layer_config(in));
  const bool has_moments = read_pod<std::uint8_t>(in) != 0;

  // The arenas the header declares must be in the stream before
  // Network(cfg) allocates (and initializes) them.
  const std::uint64_t left = io::bytes_left(in);
  const std::uint64_t w_bytes = cfg.precision == Precision::Bf16All ? 2 : 4;
  std::uint64_t declared = 0;
  std::uint64_t prev = cfg.input_dim;
  for (std::size_t i = 0; i < cfg.layers.size(); ++i) {
    const std::uint64_t dim = cfg.layers[i].dim;
    const std::uint64_t weights = io::mul_sat(dim, prev);
    std::uint64_t bytes = io::add_sat(io::mul_sat(weights, w_bytes), io::mul_sat(dim, 4));
    if (has_moments) {
      bytes = io::add_sat(bytes, io::add_sat(io::mul_sat(weights, 8), io::mul_sat(dim, 8)));
    }
    declared = io::add_sat(declared, bytes);
    if (declared > left) {
      throw std::runtime_error("checkpoint: layer " + std::to_string(i) + " (" +
                               std::to_string(dim) + " x " + std::to_string(prev) +
                               ") needs more bytes than the stream holds (" +
                               std::to_string(left) + " left)");
    }
    prev = dim;
  }

  Network net(cfg);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    Layer& L = net.layer(i);
    if (cfg.precision == Precision::Bf16All) {
      read_arena(in, L, L.weights_bf16());
    } else {
      read_arena(in, L, L.weights_f32());
    }
    read_array(in, L.biases().data(), L.biases().size());
    if (has_moments) {
      read_arena(in, L, L.moment1());
      read_arena(in, L, L.moment2());
      read_array(in, L.bias_moment1().data(), L.bias_moment1().size());
      read_array(in, L.bias_moment2().data(), L.bias_moment2().size());
    }
  }
  net.set_adam_steps(adam_t);
  // Tables are a function of the (restored) weights.
  net.rebuild_hash_tables(&global_pool());
  return net;
}

void save_network_file(const Network& net, const std::string& path, bool include_moments) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("checkpoint: cannot open for writing: " + path);
  save_network(net, out, include_moments);
}

Network load_network_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open: " + path);
  return load_network(in);
}

}  // namespace slide
