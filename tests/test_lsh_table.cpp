#include "lsh/lsh_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace slide::lsh {
namespace {

TEST(LshTables, ValidatesConstructorArguments) {
  EXPECT_THROW(LshTables(0, 16), std::invalid_argument);
  EXPECT_THROW(LshTables(4, 0), std::invalid_argument);
  LshTablesConfig cfg;
  cfg.bucket_capacity = 0;
  EXPECT_THROW(LshTables(4, 16, cfg), std::invalid_argument);
}

TEST(LshTables, InsertAndQuery) {
  LshTables t(3, 8);
  const std::uint32_t buckets_a[] = {1, 2, 3};
  const std::uint32_t buckets_b[] = {1, 5, 3};
  t.insert(10, buckets_a);
  t.insert(20, buckets_b);

  EXPECT_EQ(t.bucket(0, 1).size(), 2u);  // both hashed to bucket 1 in table 0
  EXPECT_EQ(t.bucket(1, 2).size(), 1u);
  EXPECT_EQ(t.bucket(1, 5).size(), 1u);
  EXPECT_EQ(t.bucket(2, 3).size(), 2u);
  EXPECT_TRUE(t.bucket(0, 0).empty());

  std::vector<std::uint32_t> out;
  const std::uint32_t probe[] = {1, 5, 0};
  t.query(probe, out);
  // table0 bucket1 -> {10,20}; table1 bucket5 -> {20}; table2 bucket0 -> {}
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(std::count(out.begin(), out.end(), 20u), 2);
}

TEST(LshTables, InsertRejectsOutOfRangeBucket) {
  LshTables t(2, 8);
  const std::uint32_t bad[] = {1, 8};
  EXPECT_THROW(t.insert(1, bad), std::out_of_range);
}

TEST(LshTables, CapacityIsNeverExceeded) {
  LshTablesConfig cfg;
  cfg.bucket_capacity = 16;
  LshTables t(1, 4, cfg);
  const std::uint32_t bucket[] = {2};
  for (std::uint32_t id = 0; id < 1000; ++id) t.insert(id, bucket);
  EXPECT_EQ(t.bucket(0, 2).size(), 16u);
}

TEST(LshTables, FifoKeepsNewestItems) {
  LshTablesConfig cfg;
  cfg.bucket_capacity = 4;
  cfg.policy = BucketPolicy::Fifo;
  LshTables t(1, 2, cfg);
  const std::uint32_t bucket[] = {0};
  for (std::uint32_t id = 0; id < 10; ++id) t.insert(id, bucket);
  const auto ids = t.bucket(0, 0);
  std::set<std::uint32_t> kept(ids.begin(), ids.end());
  EXPECT_EQ(kept, (std::set<std::uint32_t>{6, 7, 8, 9}));
}

TEST(LshTables, ReservoirIsApproximatelyUniform) {
  // Insert 0..999 into a capacity-100 reservoir many times (different table
  // seeds); late items must be kept about as often as early items.
  const int trials = 200;
  std::vector<int> kept_count(1000, 0);
  for (int trial = 0; trial < trials; ++trial) {
    LshTablesConfig cfg;
    cfg.bucket_capacity = 100;
    cfg.seed = static_cast<std::uint64_t>(trial) * 7919 + 13;
    LshTables t(1, 2, cfg);
    const std::uint32_t bucket[] = {1};
    for (std::uint32_t id = 0; id < 1000; ++id) t.insert(id, bucket);
    for (const auto id : t.bucket(0, 1)) kept_count[id]++;
  }
  // Expected keep frequency = 100/1000 = 0.1 -> 20 of 200 trials.
  int early = 0, late = 0;
  for (int i = 0; i < 200; ++i) early += kept_count[i];
  for (int i = 800; i < 1000; ++i) late += kept_count[i];
  EXPECT_NEAR(static_cast<double>(early) / (200 * trials), 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(late) / (200 * trials), 0.1, 0.03);
}

TEST(LshTables, ClearEmptiesEverything) {
  LshTables t(2, 4);
  const std::uint32_t bucket[] = {1, 2};
  t.insert(5, bucket);
  t.clear();
  EXPECT_TRUE(t.bucket(0, 1).empty());
  EXPECT_TRUE(t.bucket(1, 2).empty());
}

TEST(LshTables, BulkLoadMatchesSequentialInsertSemantics) {
  // bulk_load(ids 0..n-1) must put every id into its bucket in every table.
  const std::size_t n = 500;
  const std::size_t num_tables = 4;
  Rng rng(11);
  std::vector<std::uint32_t> buckets(n * num_tables);
  for (auto& b : buckets) b = static_cast<std::uint32_t>(rng.uniform_u64(64));

  LshTablesConfig cfg;
  cfg.bucket_capacity = 1000;  // no eviction: exact contents expected
  LshTables t(num_tables, 64, cfg);
  t.bulk_load(buckets.data(), n);

  for (std::size_t table = 0; table < num_tables; ++table) {
    for (std::uint32_t id = 0; id < n; ++id) {
      const auto ids = t.bucket(table, buckets[id * num_tables + table]);
      EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end())
          << "table " << table << " id " << id;
    }
  }
}

TEST(LshTables, BulkLoadDeterministicSerialVsParallel) {
  const std::size_t n = 2000;
  const std::size_t num_tables = 8;
  Rng rng(13);
  std::vector<std::uint32_t> buckets(n * num_tables);
  for (auto& b : buckets) b = static_cast<std::uint32_t>(rng.uniform_u64(16));

  LshTablesConfig cfg;
  cfg.bucket_capacity = 32;  // forces reservoir evictions
  LshTables serial(num_tables, 16, cfg);
  serial.bulk_load(buckets.data(), n, nullptr);

  ThreadPool pool(8);
  LshTables parallel(num_tables, 16, cfg);
  parallel.bulk_load(buckets.data(), n, &pool);

  for (std::size_t table = 0; table < num_tables; ++table) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      const auto s = serial.bucket(table, b);
      const auto p = parallel.bucket(table, b);
      ASSERT_EQ(s.size(), p.size());
      for (std::size_t k = 0; k < s.size(); ++k) EXPECT_EQ(s[k], p[k]);
    }
  }
}

TEST(LshTables, BulkLoadReplacesPreviousContents) {
  LshTables t(1, 4);
  const std::uint32_t old_bucket[] = {3};
  t.insert(77, old_bucket);
  const std::uint32_t buckets[] = {0, 1};  // ids 0,1 -> buckets 0,1
  t.bulk_load(buckets, 2);
  EXPECT_TRUE(t.bucket(0, 3).empty());
  EXPECT_EQ(t.bucket(0, 0).size(), 1u);
}

TEST(LshTables, StatsReflectContents) {
  LshTables t(1, 8);
  const std::uint32_t b0[] = {0};
  const std::uint32_t b1[] = {1};
  t.insert(1, b0);
  t.insert(2, b0);
  t.insert(3, b1);
  const TableStats s = t.stats(0);
  EXPECT_EQ(s.non_empty_buckets, 2u);
  EXPECT_EQ(s.total_entries, 3u);
  EXPECT_EQ(s.max_bucket_size, 2u);
  EXPECT_DOUBLE_EQ(s.avg_bucket_size, 1.5);
}

// The vector-per-bucket tables that LshTables' flat layout replaced: each
// bucket a std::vector plus its total_inserted, with the same per-table RNG
// streams and the same reservoir/FIFO draws.  The flat tables must keep
// exactly these ids, in this order, after every operation.
class ReferenceTables {
 public:
  ReferenceTables(std::size_t num_tables, std::uint32_t bucket_range, LshTablesConfig cfg)
      : cfg_(cfg), tables_(num_tables, std::vector<Bucket>(bucket_range)) {}

  void clear() {
    for (auto& t : tables_) {
      for (auto& b : t) b = Bucket{};
    }
  }

  void insert(std::uint32_t id, const std::uint32_t* bucket_indices) {
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      std::uint64_t state = mix64(cfg_.seed, t, id);
      insert_into(tables_[t][bucket_indices[t]], id, state);
    }
  }

  bool erase_one(std::size_t table, std::uint32_t bucket, std::uint32_t id) {
    auto& ids = tables_[table][bucket].ids;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] == id) {
        ids[k] = ids.back();
        ids.pop_back();
        return true;
      }
    }
    return false;
  }

  void insert_one(std::size_t table, std::uint32_t bucket, std::uint32_t id) {
    std::uint64_t state = mix64(cfg_.seed, table, id);
    insert_into(tables_[table][bucket], id, state);
  }

  void bulk_load(const std::uint32_t* bucket_indices, std::size_t num_items) {
    clear();
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      std::uint64_t state = mix64(cfg_.seed, t, 0xB01Dull);
      for (std::size_t id = 0; id < num_items; ++id) {
        insert_into(tables_[t][bucket_indices[id * tables_.size() + t]],
                    static_cast<std::uint32_t>(id), state);
      }
    }
  }

  const std::vector<std::uint32_t>& bucket(std::size_t table, std::uint32_t index) const {
    return tables_[table][index].ids;
  }

  TableStats stats(std::size_t table) const {
    TableStats s;
    for (const auto& b : tables_[table]) {
      if (b.ids.empty()) continue;
      ++s.non_empty_buckets;
      s.total_entries += b.ids.size();
      s.max_bucket_size = std::max(s.max_bucket_size, b.ids.size());
    }
    if (s.non_empty_buckets > 0) {
      s.avg_bucket_size =
          static_cast<double>(s.total_entries) / static_cast<double>(s.non_empty_buckets);
    }
    return s;
  }

 private:
  struct Bucket {
    std::vector<std::uint32_t> ids;
    std::uint32_t total_inserted = 0;
  };

  void insert_into(Bucket& b, std::uint32_t id, std::uint64_t& rng_state) const {
    ++b.total_inserted;
    if (b.ids.size() < cfg_.bucket_capacity) {
      b.ids.push_back(id);
      return;
    }
    if (cfg_.policy == BucketPolicy::Fifo) {
      b.ids[(b.total_inserted - 1) % cfg_.bucket_capacity] = id;
    } else {
      rng_state = splitmix64(rng_state);
      const std::uint64_t r = rng_state % b.total_inserted;
      if (r < cfg_.bucket_capacity) b.ids[r] = id;
    }
  }

  LshTablesConfig cfg_;
  std::vector<std::vector<Bucket>> tables_;
};

void expect_same_tables(const LshTables& t, const ReferenceTables& ref, std::size_t step) {
  for (std::size_t table = 0; table < t.num_tables(); ++table) {
    for (std::uint32_t b = 0; b < t.bucket_range(); ++b) {
      const auto got = t.bucket(table, b);
      const auto& want = ref.bucket(table, b);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "step " << step << " table " << table << " bucket " << b << ": "
          << got.size() << " ids, reference " << want.size();
    }
    const TableStats s = t.stats(table);
    const TableStats r = ref.stats(table);
    ASSERT_EQ(s.non_empty_buckets, r.non_empty_buckets) << "step " << step;
    ASSERT_EQ(s.total_entries, r.total_entries) << "step " << step;
    ASSERT_EQ(s.max_bucket_size, r.max_bucket_size) << "step " << step;
    ASSERT_DOUBLE_EQ(s.avg_bucket_size, r.avg_bucket_size) << "step " << step;
  }
}

// Seeded random operation sequences against the reference.  They run long
// enough between loads for buckets to outgrow their arena slots (and, in the
// small tables at capacity 128, for tables to compact), and they erase ids
// both present and absent.
TEST(LshTables, ReplaysReferenceBucketsExactly) {
  ThreadPool pool(2);
  const std::size_t num_tables = 2;
  for (const BucketPolicy policy : {BucketPolicy::Reservoir, BucketPolicy::Fifo}) {
    for (const std::uint32_t capacity : {1u, 3u, 128u}) {
      for (const std::uint32_t range : {1u, 8u, 4096u}) {
        SCOPED_TRACE(::testing::Message()
                     << (policy == BucketPolicy::Fifo ? "fifo" : "reservoir")
                     << " capacity " << capacity << " range " << range);
        LshTablesConfig cfg;
        cfg.bucket_capacity = capacity;
        cfg.policy = policy;
        cfg.seed = mix64(capacity, range, policy == BucketPolicy::Fifo);
        LshTables t(num_tables, range, cfg);
        ReferenceTables ref(num_tables, range, cfg);
        Rng rng(cfg.seed);
        std::vector<std::uint32_t> buckets;
        std::uint32_t loads = 0;
        // Half the inserts go to buckets 0 and 1, so some buckets fill up.
        const auto pick = [&] {
          return static_cast<std::uint32_t>(
              rng.uniform_u64(rng.uniform_u64(2) == 0 ? std::min(range, 2u) : range));
        };
        // Small tables check cheaply, so they run longer.
        const std::size_t steps = range <= 8 ? 20000 : 2500;
        for (std::size_t step = 0; step < steps; ++step) {
          const std::uint64_t op = rng.uniform_u64(1000);
          if (op < 3) {
            const std::size_t n = rng.uniform_u64(std::min<std::uint64_t>(3 * range + 8, 5000));
            buckets.resize(n * num_tables);
            for (auto& b : buckets) b = static_cast<std::uint32_t>(rng.uniform_u64(range));
            t.bulk_load(buckets.data(), n, ++loads % 2 == 0 ? &pool : nullptr);
            ref.bulk_load(buckets.data(), n);
          } else if (op < 5) {
            t.clear();
            ref.clear();
          } else if (op < 350) {
            const auto id = static_cast<std::uint32_t>(rng.uniform_u64(100000));
            std::uint32_t b[num_tables];
            for (auto& x : b) x = pick();
            t.insert(id, b);
            ref.insert(id, b);
          } else if (op < 650) {
            const std::size_t table = rng.uniform_u64(num_tables);
            const auto b = pick();
            const auto id = static_cast<std::uint32_t>(rng.uniform_u64(100000));
            t.insert_one(table, b, id);
            ref.insert_one(table, b, id);
          } else {
            // Erase an id that is present (the first non-empty bucket from a
            // random start) two times in three, otherwise a random one.
            const std::size_t table = rng.uniform_u64(num_tables);
            auto b = static_cast<std::uint32_t>(rng.uniform_u64(range));
            auto id = static_cast<std::uint32_t>(rng.uniform_u64(100000));
            if (rng.uniform_u64(3) != 0) {
              for (std::uint32_t k = 0; k < range && ref.bucket(table, b).empty(); ++k) {
                b = (b + 1) % range;
              }
              const auto& ids = ref.bucket(table, b);
              if (!ids.empty()) id = ids[rng.uniform_u64(ids.size())];
            }
            ASSERT_EQ(t.erase_one(table, b, id), ref.erase_one(table, b, id)) << "step " << step;
          }
          expect_same_tables(t, ref, step);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(LshTables, BulkLoadedTableBytesAtMostSixteenPerBucketPlusFourPerId) {
  // The flat layout: an 8-byte head and two u32 counters per bucket, and an
  // arena sized to exactly the ids kept.  A std::vector per bucket spent at
  // least 32 B per bucket before its first id.
  const std::size_t n = 13401;
  const std::size_t num_tables = 4;
  const std::uint32_t range = 1u << 15;
  Rng rng(17);
  std::vector<std::uint32_t> buckets(n * num_tables);
  for (auto& b : buckets) b = static_cast<std::uint32_t>(rng.uniform_u64(range));
  LshTables t(num_tables, range);
  t.bulk_load(buckets.data(), n);
  for (std::size_t table = 0; table < num_tables; ++table) {
    const TableStats s = t.stats(table);
    EXPECT_EQ(s.total_entries, n);
    EXPECT_GE(s.bytes, 4 * s.total_entries);
    EXPECT_LE(s.bytes, 16 * std::size_t{range} + 4 * s.total_entries);
  }
}

}  // namespace
}  // namespace slide::lsh
