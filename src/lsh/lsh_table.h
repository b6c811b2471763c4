// L hash tables of neuron-id buckets (paper Fig. 1: "Buckets (pointers
// only)").
//
// Each table partitions neurons by their bucket index under one of the L
// hash functions.  Buckets hold fixed-capacity candidate lists with either
// reservoir-sampling or FIFO eviction — reservoir is SLIDE's default and
// keeps buckets an unbiased sample of their (possibly huge) true contents.
//
// Tables are rebuilt wholesale on SLIDE's growing schedule rather than
// updated per weight change; bulk_load parallelizes over tables (tables are
// independent), so no locking is needed anywhere.
//
// Layout (the paper's Section 4.1 memory coalescing, applied to the
// tables).  Each table is flat: one contiguous u32 id arena plus three
// arrays indexed by bucket.
//   - heads: an 8-byte {begin, end}; the bucket's ids are arena[begin, end).
//     A probe reads the head and then the ids, nothing else.
//   - slots and total_inserted: u32 each, read only by inserts.  The bucket
//     owns arena[begin, begin + slots); total_inserted drives the reservoir
//     and FIFO rules.
// That is 16 B per bucket plus 4 B per arena slot (TableStats::bytes), where
// a std::vector per bucket cost 32 B plus a heap block per non-empty bucket.
//
// bulk_load counts each bucket's ids first and gives the bucket exactly
// min(count, bucket_capacity) slots, packed in bucket order, so a freshly
// loaded table has no slack.  Incremental inserts that find their bucket's
// slots full (and the bucket below capacity) move the bucket to the end of
// the arena with twice the slots, capped at bucket_capacity; its old slots
// become garbage.  A table compacts, keeping every bucket's slot count,
// once garbage outgrows both the live slots and an eighth of the bucket
// count, so each insert stays amortized O(1) and garbage never costs more
// than the live arena or 0.5 B per bucket.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lsh/hash_function.h"
#include "threading/thread_pool.h"

namespace slide::lsh {

enum class BucketPolicy { Reservoir, Fifo };

struct LshTablesConfig {
  std::uint32_t bucket_capacity = 128;
  BucketPolicy policy = BucketPolicy::Reservoir;
  std::uint64_t seed = 0x7AB1E5ull;
};

struct TableStats {
  std::size_t non_empty_buckets = 0;
  std::size_t total_entries = 0;
  std::size_t max_bucket_size = 0;
  double avg_bucket_size = 0.0;  // over non-empty buckets
  std::size_t bytes = 0;         // resident: per-bucket arrays + arena capacity
};

class LshTables {
 public:
  LshTables(std::size_t num_tables, std::uint32_t bucket_range, LshTablesConfig cfg = {});

  std::size_t num_tables() const { return tables_.size(); }
  std::uint32_t bucket_range() const { return bucket_range_; }

  void clear();

  // Inserts one item given its per-table bucket indices (indices[t] is the
  // bucket in table t).  Not thread-safe; used by tests and incremental
  // updates.
  void insert(std::uint32_t id, const std::uint32_t* bucket_indices);

  // Single-table operations for incremental maintenance (paper Section 2:
  // "it will be deleted from the current bucket ... and re-added").
  // erase_one returns false when the id was not present (e.g. it had been
  // evicted by the reservoir).  Not thread-safe across the same table.
  bool erase_one(std::size_t table, std::uint32_t bucket, std::uint32_t id);
  void insert_one(std::size_t table, std::uint32_t bucket, std::uint32_t id);

  // Clears, then inserts items 0..num_items-1 whose bucket indices are given
  // row-major in `bucket_indices` (num_items x num_tables).  Parallel over
  // tables when a pool is supplied.  Deterministic for a fixed seed
  // regardless of thread schedule (per-table RNG streams).
  void bulk_load(const std::uint32_t* bucket_indices, std::size_t num_items,
                 ThreadPool* pool = nullptr);

  std::span<const std::uint32_t> bucket(std::size_t table, std::uint32_t index) const {
    const Table& t = tables_[table];
    const Head h = t.heads[index];
    return {t.arena.data() + h.begin, h.end - h.begin};
  }

  // Appends, without deduplication, every id in the probed buckets.
  void query(const std::uint32_t* bucket_indices, std::vector<std::uint32_t>& out) const;

  TableStats stats(std::size_t table) const;

 private:
  struct Head {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  struct Table {
    std::vector<Head> heads;
    std::vector<std::uint32_t> slots;
    std::vector<std::uint32_t> total_inserted;
    std::vector<std::uint32_t> arena;
    std::size_t garbage = 0;  // arena slots no bucket owns
  };

  void insert_into(Table& table, std::uint32_t bucket_index, std::uint32_t id,
                   std::uint64_t& rng_state);
  void grow(Table& table, std::uint32_t bucket_index);
  static void compact(Table& table);

  std::uint32_t bucket_range_;
  LshTablesConfig cfg_;
  std::vector<Table> tables_;
};

}  // namespace slide::lsh
