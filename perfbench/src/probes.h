// Per-layer probes for the traced run: each one times calls into one
// layer's public functions at the workload's own shapes and inputs, and
// reports the result under that layer's metric names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network.h"
#include "data/dataset.h"
#include "infer/engine.h"
#include "lsh/hash_function.h"
#include "lsh/lsh_table.h"
#include "report.h"

namespace perfbench {

struct KernelShape {
  std::size_t input_dim = 0;    // sparse input width (first layer)
  std::size_t hidden = 0;       // dense width feeding the output layer
  std::size_t labels = 0;       // output rows
  std::size_t nnz = 0;          // mean non-zeros per example
};

// kernels.<name>.{gflops|gbps, flops_per_call, bytes_per_call} for the seven
// dispatched kernels the issue names, at `shape`.
void probe_kernels(const KernelShape& shape, std::uint64_t seed, double budget_s,
                   Tracer& tracer, Report& report);

// lsh.*: hashing and active-set selection of the hidden activations of
// `queries` against the output layer's hash family and tables (those of
// the trained network, or of the frozen model for serving workloads),
// bucket-only label recall, and table occupancy.  rebuild_ms times
// Network::rebuild_hash_tables.
void probe_lsh(slide::Network& net, const slide::lsh::HashFamily& family,
               const slide::lsh::LshTables& tables, const slide::data::Dataset& queries,
               Tracer& tracer, Report& report);

// data.parse_mb_per_s: one standalone epoch of ChunkStream::next() over an
// XC file.
void probe_parse(const std::string& path, std::size_t chunk_bytes, Tracer& tracer,
                 Report& report);

// infer.query_us (single predict_topk) and infer.batch_us (predict_topk_batch
// at `batch` queries) in `mode`.
void probe_infer(slide::infer::InferenceEngine& engine, slide::infer::TopKMode mode,
                 const slide::data::Dataset& queries, std::size_t batch, Tracer& tracer,
                 Report& report);

}  // namespace perfbench
