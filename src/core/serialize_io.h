// Low-level binary IO shared by the Network checkpoint format
// (core/serialize.cpp) and the PackedModel serving format
// (infer/packed_model.cpp): POD and array read/write, the LayerConfig
// record both formats embed, and the file order of weight-shaped arenas.
//
// All readers throw std::runtime_error on truncated or out-of-range input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"

namespace slide::io {

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("checkpoint: truncated input");
  return v;
}

template <typename T>
void write_array(std::ostream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
void read_array(std::istream& in, T* data, std::size_t count) {
  in.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) throw std::runtime_error("checkpoint: truncated array");
}

// Byte counts derived from sizes a file declares saturate at UINT64_MAX
// instead of wrapping, so an absurd declaration never looks small.
inline std::uint64_t mul_sat(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}
inline std::uint64_t add_sat(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

// Bytes between the read position and the end of `in`, or UINT64_MAX when
// the stream cannot seek (a pipe).  The loaders compare what a header
// declares against it before allocating anything the header sizes.
inline std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return UINT64_MAX;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return UINT64_MAX;
  return static_cast<std::uint64_t>(end - here);
}

// Size of one serialized LayerConfig record (the fields written below, in
// order).  The SLDP v2 reader reads this many raw bytes so it can checksum
// the record before parsing it; keep it in sync with
// write_layer_config/read_layer_config.
inline constexpr std::size_t kLayerConfigWireBytes =
    8 + 1 + 1 + 4 + 4 + 4 + 1 + 8 + 8 + 8 + 8 + 1;  // = 56

inline void write_layer_config(std::ostream& out, const LayerConfig& cfg) {
  write_pod<std::uint64_t>(out, cfg.dim);
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.activation));
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.lsh.kind));
  write_pod<std::int32_t>(out, cfg.lsh.k);
  write_pod<std::int32_t>(out, cfg.lsh.l);
  write_pod<std::uint32_t>(out, cfg.lsh.bucket_capacity);
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.lsh.bucket_policy));
  write_pod<std::uint64_t>(out, cfg.lsh.min_active);
  write_pod<std::uint64_t>(out, cfg.lsh.max_active);
  write_pod<std::uint64_t>(out, cfg.lsh.rebuild_interval);
  write_pod<double>(out, cfg.lsh.rebuild_growth);
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.lsh.maintenance));
}

// Reads a one-byte enum, rejecting values past its last enumerator.
template <typename Enum>
Enum read_enum(std::istream& in, Enum last, const char* what) {
  const auto v = read_pod<std::uint8_t>(in);
  if (v > static_cast<std::uint8_t>(last)) {
    throw std::runtime_error(std::string("checkpoint: invalid ") + what + " byte " +
                             std::to_string(v));
  }
  return static_cast<Enum>(v);
}

inline LayerConfig read_layer_config(std::istream& in) {
  LayerConfig cfg;
  cfg.dim = read_pod<std::uint64_t>(in);
  cfg.activation = read_enum(in, Activation::Linear, "activation");
  cfg.lsh.kind = read_enum(in, HashKind::SimHash, "hash kind");
  cfg.lsh.k = read_pod<std::int32_t>(in);
  cfg.lsh.l = read_pod<std::int32_t>(in);
  cfg.lsh.bucket_capacity = read_pod<std::uint32_t>(in);
  cfg.lsh.bucket_policy = read_enum(in, lsh::BucketPolicy::Fifo, "bucket policy");
  cfg.lsh.min_active = read_pod<std::uint64_t>(in);
  cfg.lsh.max_active = read_pod<std::uint64_t>(in);
  cfg.lsh.rebuild_interval = read_pod<std::uint64_t>(in);
  cfg.lsh.rebuild_growth = read_pod<double>(in);
  cfg.lsh.maintenance = read_enum(in, LshMaintenance::Incremental, "maintenance");
  return cfg;
}

// Files hold every weight-shaped arena neuron-major (dim rows of input_dim)
// whatever its layout in memory: a feature-major arena is transposed at the
// file boundary, so the bytes on disk never depend on the layout.

// dst (cols x rows) = the transpose of src (rows x cols), tile by tile.
template <typename T>
void transpose(const T* src, std::size_t rows, std::size_t cols, T* dst) {
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(rows, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(cols, c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
      }
    }
  }
}

// The arena in file order: itself, or its transpose staged in `staged`.
template <typename T>
const T* to_file_order(const T* arena, std::size_t dim, std::size_t input_dim,
                       bool feature_major, std::vector<T>& staged) {
  if (!feature_major) return arena;
  staged.resize(dim * input_dim);
  transpose(arena, input_dim, dim, staged.data());
  return staged.data();
}

// Reads a file-order arena into `arena`; returns the bytes as read (for
// checksumming).
template <typename T>
const T* read_file_order(std::istream& in, T* arena, std::size_t dim, std::size_t input_dim,
                         bool feature_major, std::vector<T>& staged) {
  if (!feature_major) {
    read_array(in, arena, dim * input_dim);
    return arena;
  }
  staged.resize(dim * input_dim);
  read_array(in, staged.data(), staged.size());
  transpose(staged.data(), dim, input_dim, arena);
  return staged.data();
}

}  // namespace slide::io
