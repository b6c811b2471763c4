#include "lsh/lsh_table.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace slide::lsh {

LshTables::LshTables(std::size_t num_tables, std::uint32_t bucket_range, LshTablesConfig cfg)
    : bucket_range_(bucket_range), cfg_(cfg) {
  if (num_tables == 0) throw std::invalid_argument("LshTables: num_tables must be > 0");
  if (bucket_range == 0) throw std::invalid_argument("LshTables: bucket_range must be > 0");
  if (cfg_.bucket_capacity == 0) {
    throw std::invalid_argument("LshTables: bucket_capacity must be > 0");
  }
  tables_.resize(num_tables);
  for (auto& t : tables_) {
    t.heads.resize(bucket_range_);
    t.slots.resize(bucket_range_);
    t.total_inserted.resize(bucket_range_);
  }
}

void LshTables::clear() {
  for (auto& t : tables_) {
    std::fill(t.heads.begin(), t.heads.end(), Head{});
    std::fill(t.slots.begin(), t.slots.end(), 0u);
    std::fill(t.total_inserted.begin(), t.total_inserted.end(), 0u);
    std::vector<std::uint32_t>().swap(t.arena);
    t.garbage = 0;
  }
}

void LshTables::compact(Table& table) {
  std::vector<std::uint32_t> arena(table.arena.size() - table.garbage);
  std::uint32_t offset = 0;
  for (std::size_t b = 0; b < table.heads.size(); ++b) {
    Head& h = table.heads[b];
    std::copy(table.arena.begin() + h.begin, table.arena.begin() + h.end,
              arena.begin() + offset);
    h = {offset, offset + (h.end - h.begin)};
    offset += table.slots[b];
  }
  table.arena.swap(arena);
  table.garbage = 0;
}

void LshTables::grow(Table& table, std::uint32_t bucket_index) {
  Head& h = table.heads[bucket_index];
  std::uint32_t& slots = table.slots[bucket_index];
  const auto new_slots = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(2ull * slots, 1), cfg_.bucket_capacity));
  const std::size_t begin = table.arena.size();
  if (begin + new_slots > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("LshTables: table arena exceeds 2^32 slots");
  }
  table.arena.resize(begin + new_slots);
  std::copy(table.arena.begin() + h.begin, table.arena.begin() + h.end,
            table.arena.begin() + begin);
  table.garbage += slots;
  h = {static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(begin) + (h.end - h.begin)};
  slots = new_slots;
  // Compaction walks every head, so it also waits for heads.size() / 8
  // garbage slots: that keeps it amortized O(1) per slot in sparse tables.
  if (table.garbage > table.arena.size() / 2 && table.garbage >= table.heads.size() / 8) {
    compact(table);
  }
}

void LshTables::insert_into(Table& table, std::uint32_t bucket_index, std::uint32_t id,
                            std::uint64_t& rng_state) {
  const std::uint32_t total = ++table.total_inserted[bucket_index];
  const Head h = table.heads[bucket_index];
  if (h.end - h.begin < cfg_.bucket_capacity) {
    if (h.end - h.begin == table.slots[bucket_index]) grow(table, bucket_index);
    table.arena[table.heads[bucket_index].end++] = id;
    return;
  }
  std::uint32_t* ids = table.arena.data() + h.begin;
  if (cfg_.policy == BucketPolicy::Fifo) {
    ids[(total - 1) % cfg_.bucket_capacity] = id;
  } else {
    // Reservoir sampling: keep each of the total_inserted items with equal
    // probability capacity/total.
    rng_state = splitmix64(rng_state);
    const std::uint64_t r = rng_state % total;
    if (r < cfg_.bucket_capacity) ids[r] = id;
  }
}

void LshTables::insert(std::uint32_t id, const std::uint32_t* bucket_indices) {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (bucket_indices[t] >= bucket_range_) {
      throw std::out_of_range("LshTables::insert: bucket index out of range");
    }
    std::uint64_t state = mix64(cfg_.seed, t, id);
    insert_into(tables_[t], bucket_indices[t], id, state);
  }
}

bool LshTables::erase_one(std::size_t table, std::uint32_t bucket, std::uint32_t id) {
  if (bucket >= bucket_range_) throw std::out_of_range("LshTables::erase_one: bad bucket");
  Table& t = tables_[table];
  Head& h = t.heads[bucket];
  for (std::uint32_t k = h.begin; k < h.end; ++k) {
    if (t.arena[k] == id) {
      t.arena[k] = t.arena[--h.end];  // swap-erase; bucket order is not meaningful
      return true;
    }
  }
  return false;
}

void LshTables::insert_one(std::size_t table, std::uint32_t bucket, std::uint32_t id) {
  if (bucket >= bucket_range_) throw std::out_of_range("LshTables::insert_one: bad bucket");
  std::uint64_t state = mix64(cfg_.seed, table, id);
  insert_into(tables_[table], bucket, id, state);
}

void LshTables::bulk_load(const std::uint32_t* bucket_indices, std::size_t num_items,
                          ThreadPool* pool) {
  const std::size_t num_tables = tables_.size();
  const auto load_table = [&](std::size_t t) {
    Table& table = tables_[t];
    // Size every bucket for exactly the ids it will keep, then replay the
    // inserts in id order: the same ids land in the same order as when each
    // bucket grew on demand, with the same reservoir draws.
    std::fill(table.total_inserted.begin(), table.total_inserted.end(), 0u);
    for (std::size_t id = 0; id < num_items; ++id) {
      ++table.total_inserted[bucket_indices[id * num_tables + t]];
    }
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < table.heads.size(); ++b) {
      table.slots[b] = std::min(table.total_inserted[b], cfg_.bucket_capacity);
      table.heads[b] = {offset, offset};
      offset += table.slots[b];
      table.total_inserted[b] = 0;
    }
    std::vector<std::uint32_t>(offset).swap(table.arena);
    table.garbage = 0;

    std::uint64_t state = mix64(cfg_.seed, t, 0xB01Dull);
    for (std::size_t id = 0; id < num_items; ++id) {
      insert_into(table, bucket_indices[id * num_tables + t], static_cast<std::uint32_t>(id),
                  state);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for_dynamic(num_tables, 1, [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) load_table(t);
    });
  } else {
    for (std::size_t t = 0; t < num_tables; ++t) load_table(t);
  }
}

void LshTables::query(const std::uint32_t* bucket_indices,
                      std::vector<std::uint32_t>& out) const {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto ids = bucket(t, bucket_indices[t]);
    out.insert(out.end(), ids.begin(), ids.end());
  }
}

TableStats LshTables::stats(std::size_t table) const {
  const Table& t = tables_[table];
  TableStats s;
  for (const Head& h : t.heads) {
    const std::size_t size = h.end - h.begin;
    if (size == 0) continue;
    ++s.non_empty_buckets;
    s.total_entries += size;
    s.max_bucket_size = std::max(s.max_bucket_size, size);
  }
  if (s.non_empty_buckets > 0) {
    s.avg_bucket_size =
        static_cast<double>(s.total_entries) / static_cast<double>(s.non_empty_buckets);
  }
  s.bytes = t.heads.capacity() * sizeof(Head) +
            (t.slots.capacity() + t.total_inserted.capacity() + t.arena.capacity()) *
                sizeof(std::uint32_t);
  return s;
}

}  // namespace slide::lsh
