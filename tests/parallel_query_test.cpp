// The concurrent read path, fast tier: a stable client-side tag cache,
// concurrent readers sharing one connection while pages evict, and
// shared-latch behavior of the buffer pool itself. The heavier many-thread
// soak lives in concurrency_stress_test.cpp under the `stress` label.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/sql/database.h"
#include "src/storage/buffer_pool.h"
#include "src/util/error.h"
#include "tests/test_util.h"

namespace wre {
namespace {

using core::EncryptedColumnSpec;
using core::EncryptedConnection;
using core::PlaintextDistribution;
using core::SaltMethod;
using sql::Column;
using sql::Schema;
using sql::Value;
using sql::ValueType;
using wre::testing::TempDir;

// ----------------------------------------------------- encrypted queries

EncryptedConnection make_encrypted(sql::Database& db, int64_t rows) {
  EncryptedConnection conn(db, Bytes(32, 0x42));
  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText}});
  std::unordered_map<std::string, uint64_t> counts;
  for (int i = 0; i < 10; ++i) {
    counts["name" + std::to_string(i)] = static_cast<uint64_t>(1 + 3 * i);
  }
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("name", PlaintextDistribution::from_counts(counts));
  std::vector<EncryptedColumnSpec> specs{{"name", SaltMethod::kPoisson, 60}};
  conn.create_table("t", schema, specs, dists);
  for (int64_t id = 0; id < rows; ++id) {
    conn.insert("t", {Value::int64(id),
                      Value::text("name" + std::to_string(id % 10))});
  }
  return conn;
}

// Repeated searches hit the client-side tag cache: the rewritten SQL (and
// thus the tag expansion) must be bit-identical across calls, and results
// unchanged.
TEST(ParallelQuery, TagCacheStableAcrossRepeatedSearches) {
  TempDir dir("pq_cache");
  sql::Database db(dir.str());
  EncryptedConnection conn = make_encrypted(db, 120);

  std::string first = conn.rewrite_select("t", "name", "name3", false);
  auto ids = conn.select_ids("t", "name", "name3");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(conn.rewrite_select("t", "name", "name3", false), first);
    auto again = conn.select_ids("t", "name", "name3");
    EXPECT_EQ(again.ids, ids.ids);
    EXPECT_EQ(again.sql, ids.sql);
    EXPECT_EQ(again.tags_in_query, ids.tags_in_query);
  }
}

// N reader threads issue mixed SELECT id / SELECT * against one shared
// connection while a deliberately tiny buffer pool forces evictions and
// re-reads under them. Every thread must see exactly the loaded rows.
TEST(ParallelQuery, ConcurrentReadersUnderEviction) {
  TempDir dir("pq_readers");
  sql::DatabaseOptions options;
  options.buffer_pool_pages = 16;  // working set far exceeds this
  sql::Database db(dir.str(), options);
  EncryptedConnection conn = make_encrypted(db, 400);

  std::map<std::string, size_t> expected;
  for (int64_t id = 0; id < 400; ++id) ++expected["name" + std::to_string(id % 10)];

  constexpr int kReaders = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 12; ++i) {
        std::string value = "name" + std::to_string((r + i) % 10);
        size_t n = (i % 2 == 0)
                       ? conn.select_ids("t", "name", value).ids.size()
                       : conn.select_star("t", "name", value).rows.size();
        if (n != expected[value]) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------------------ buffer pool

// Many threads fetch the same pages with shared latches; each page's
// content must read back consistently while eviction churns the pool.
TEST(BufferPoolConcurrency, SharedFetchesSeeConsistentPages) {
  TempDir dir("pq_pool");
  storage::DiskManager disk;
  storage::FileId file = disk.open_file(dir.str() + "/pages.db");
  constexpr int kPages = 32;
  std::vector<storage::PageNumber> pages;
  {
    storage::BufferPool writer(disk, kPages + 1);
    for (int i = 0; i < kPages; ++i) {
      storage::PageGuard g = writer.allocate(file);
      pages.push_back(g.id().page);
      uint8_t* p = g.mutable_data();
      for (size_t b = 0; b < storage::kPageSize; ++b) {
        p[b] = static_cast<uint8_t>((i + b) & 0xff);
      }
    }
    writer.flush_all();
  }

  storage::BufferPool pool(disk, 8);  // forces miss/evict churn
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        int i = (t * 7 + round) % kPages;
        storage::PageGuard g = pool.fetch(storage::PageId{file, pages[i]},
                                          storage::LatchMode::kShared);
        const uint8_t* p = g.data();
        for (size_t b = 0; b < storage::kPageSize; b += 997) {
          if (p[b] != static_cast<uint8_t>((i + b) & 0xff)) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);  // the churn actually happened
}

// mutable_data through a shared guard is a contract violation and throws.
TEST(BufferPoolConcurrency, SharedGuardRejectsMutableAccess) {
  TempDir dir("pq_shared_guard");
  storage::DiskManager disk;
  storage::FileId file = disk.open_file(dir.str() + "/pages.db");
  storage::BufferPool pool(disk, 4);
  { storage::PageGuard g = pool.allocate(file); }
  storage::PageGuard g =
      pool.fetch(storage::PageId{file, 0}, storage::LatchMode::kShared);
  EXPECT_THROW(g.mutable_data(), StorageError);
}

}  // namespace
}  // namespace wre
