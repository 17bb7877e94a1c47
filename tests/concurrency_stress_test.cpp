// Concurrency stress for the thread pool, the bulk-ingest pipeline and the
// batched-insert path: many small batches interleaved with queries, plus
// shutdown-under-load. Built to be run under ThreadSanitizer / ASan too
// (scripts/run_sanitizers.sh); carries the `stress` ctest label so the
// fast tier-1 loop can skip it with `ctest -L fast`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/columnar/store_manager.h"
#include "src/core/encrypted_client.h"
#include "src/core/ingest_pipeline.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/sql/database.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace wre {
namespace {

using core::EncryptedColumnSpec;
using core::EncryptedConnection;
using core::IngestOptions;
using core::IngestPipeline;
using core::PlaintextDistribution;
using core::SaltMethod;
using sql::Column;
using sql::Row;
using sql::Schema;
using sql::Value;
using sql::ValueType;
using wre::testing::TempDir;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolStress, ManySmallTasksAllRun) {
  std::atomic<int> count{0};
  constexpr int kTasks = 5000;
  {
    util::ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(count.load(), kTasks);
}

// The shutdown contract: destruction with work still queued completes the
// backlog — nothing submitted is ever dropped.
TEST(ThreadPoolStress, DestructionDrainsQueuedWork) {
  std::atomic<int> count{0};
  constexpr int kTasks = 300;
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&count] {
        // Slow tasks guarantee a deep backlog at destruction time.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor runs here, with most of the queue still pending.
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolStress, ConcurrentSubmitters) {
  std::atomic<int> count{0};
  constexpr int kPerProducer = 500;
  {
    util::ThreadPool pool(4);
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.submit(
              [&count] { count.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& t : producers) t.join();
  }  // the destructor drains the queue
  EXPECT_EQ(count.load(), 4 * kPerProducer);
}

// ------------------------------------------- pipeline + batched inserts

PlaintextDistribution stress_dist() {
  std::unordered_map<std::string, uint64_t> counts;
  for (int i = 0; i < 12; ++i) {
    counts["v" + std::to_string(i)] = static_cast<uint64_t>(2 * i + 1);
  }
  return PlaintextDistribution::from_counts(counts);
}

TEST(IngestStress, ManySmallBatchesInterleavedWithQueries) {
  TempDir dir("ingest_stress");
  sql::Database db(dir.str());
  Bytes secret(32, 0x11);
  EncryptedConnection conn(db, secret);

  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText},
                 Column{"note", ValueType::kText}});
  std::vector<EncryptedColumnSpec> specs{{"name", SaltMethod::kPoisson, 40}};
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("name", stress_dist());
  conn.create_table("t", schema, specs, dists);

  IngestOptions options;
  options.threads = 4;
  options.batch_rows = 3;  // deliberately tiny: maximize handoffs
  IngestPipeline pipeline(conn, "t", options);

  std::unordered_map<std::string, size_t> expected;
  int64_t next_id = 0;
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Row> chunk;
    const size_t chunk_rows = 1 + static_cast<size_t>(round % 13);
    for (size_t i = 0; i < chunk_rows; ++i) {
      std::string name = "v" + std::to_string((next_id * 5) % 12);
      chunk.push_back({Value::int64(next_id++), Value::text(name),
                       Value::text("note")});
      ++expected[name];
    }
    pipeline.ingest(chunk);

    // Interleave queries with the ingest stream: results must always see
    // exactly the rows ingested so far (no lost, duplicated or torn rows).
    if (round % 7 == 0) {
      std::string probe = "v" + std::to_string(round % 12);
      auto result = conn.select_star("t", "name", probe);
      EXPECT_EQ(result.rows.size(), expected[probe]) << "round " << round;
    }
  }

  EXPECT_EQ(db.table("t").row_count(), static_cast<uint64_t>(next_id));
  size_t total = 0;
  for (const auto& [name, count] : expected) {
    auto result = conn.select_ids("t", "name", name);
    EXPECT_EQ(result.ids.size(), count) << name;
    total += result.ids.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(next_id));
}

TEST(IngestStress, AlternatingBulkAndSerialInserts) {
  TempDir dir("ingest_mixed");
  sql::Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 0x22));

  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText}});
  std::vector<EncryptedColumnSpec> specs{{"name", SaltMethod::kFixed, 8}};
  conn.create_table("t", schema, specs, {});

  int64_t next_id = 0;
  for (int round = 0; round < 20; ++round) {
    if (round % 2 == 0) {
      std::vector<Row> chunk;
      for (int i = 0; i < 9; ++i) {
        chunk.push_back({Value::int64(next_id++), Value::text("bulk")});
      }
      IngestOptions options;
      options.threads = 2;
      options.batch_rows = 4;
      conn.insert_bulk("t", chunk, options);
    } else {
      conn.insert("t", {Value::int64(next_id++), Value::text("serial")});
    }
  }
  EXPECT_EQ(db.table("t").row_count(), static_cast<uint64_t>(next_id));
  EXPECT_EQ(conn.select_ids("t", "name", "bulk").ids.size(), 90u);
  EXPECT_EQ(conn.select_ids("t", "name", "serial").ids.size(), 10u);
}

// Raw batched-insert hammering (no encryption): many ragged batches must
// leave the table and its indexes exactly as per-row inserts would.
TEST(IngestStress, TableInsertBatchManyRaggedBatches) {
  TempDir dir("table_batch");
  sql::Database db(dir.str());
  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"k", ValueType::kInt64},
                 Column{"s", ValueType::kText}});
  db.create_table("t", schema);
  db.create_index("t", "k");

  int64_t next_id = 0;
  std::map<int64_t, size_t> expected;
  for (int round = 0; round < 40; ++round) {
    std::vector<Row> batch;
    for (int i = 0; i <= round % 9; ++i) {
      int64_t k = next_id % 7;
      batch.push_back({Value::int64(next_id++), Value::int64(k),
                       Value::text("r" + std::to_string(round))});
      ++expected[k];
    }
    db.insert_batch("t", batch);
  }
  EXPECT_EQ(db.table("t").row_count(), static_cast<uint64_t>(next_id));
  for (const auto& [k, count] : expected) {
    EXPECT_EQ(db.table("t").probe_index("k", Value::int64(k)).size(), count);
  }
  // Duplicate-pk rejection is all-or-nothing for the batch.
  std::vector<Row> dup{{Value::int64(next_id), Value::int64(0),
                        Value::text("x")},
                       {Value::int64(0), Value::int64(0), Value::text("x")}};
  EXPECT_THROW(db.insert_batch("t", dup), SqlError);
  EXPECT_EQ(db.table("t").row_count(), static_cast<uint64_t>(next_id));
}

// --------------------------------------------------- concurrent read path

// Many reader threads hammer one shared connection with mixed SELECT id /
// SELECT * while a tiny buffer pool keeps pages evicting underneath them.
// Run under WRE_SANITIZE=thread this is the data-race proof for the latched
// read path; functionally every query must see exactly the loaded rows.
TEST(ReadStress, ManyReadersSharedConnectionUnderEviction) {
  TempDir dir("read_stress");
  sql::DatabaseOptions options;
  options.buffer_pool_pages = 8;  // way below the working set
  sql::Database db(dir.str(), options);
  EncryptedConnection conn(db, Bytes(32, 0x33));

  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText},
                 Column{"note", ValueType::kText}});
  std::vector<EncryptedColumnSpec> specs{{"name", SaltMethod::kPoisson, 60}};
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("name", stress_dist());
  conn.create_table("t", schema, specs, dists);

  std::unordered_map<std::string, size_t> expected;
  constexpr int64_t kRows = 600;
  for (int64_t id = 0; id < kRows; ++id) {
    std::string name = "v" + std::to_string((id * 7) % 12);
    conn.insert("t", {Value::int64(id), Value::text(name),
                      Value::text("note" + std::to_string(id))});
    ++expected[name];
  }
  db.checkpoint();

  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kQueriesPerReader; ++i) {
        std::string value = "v" + std::to_string((r * 5 + i) % 12);
        size_t n;
        if ((r + i) % 2 == 0) {
          n = conn.select_ids("t", "name", value).ids.size();
        } else {
          n = conn.select_star("t", "name", value).rows.size();
        }
        if (n != expected[value]) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db.buffer_pool().stats().evictions, 0u);
}

// ------------------------------------------ columnar catch-up under load

// One writer appends small batches while two readers scan and index-fetch
// through a columnar server. Every read must return a prefix of the
// writer's stream that covers each insert acknowledged before the read
// began, row for row. Under ThreadSanitizer this is the race proof for
// segments catching up (tail chunks and merges) beside concurrent readers.
TEST(ColumnarSoak, WriterAndReadersThroughColumnarServer) {
  TempDir dir("columnar_soak");
  sql::DatabaseOptions options;
  options.columnar = true;
  sql::Database db(dir.str(), options);
  net::Server server(db, {});
  server.start();
  {
    net::RemoteConnection setup("127.0.0.1", server.port());
    setup.create_table("t", Schema({Column{"id", ValueType::kInt64, true},
                                    Column{"k", ValueType::kInt64},
                                    Column{"city", ValueType::kText}}));
    setup.create_index("t", "k");
  }
  auto row_of = [](int64_t id) {
    return Row{Value::int64(id), Value::int64(id % 7),
               Value::text("c" + std::to_string(id % 5))};
  };
  struct Query {
    std::string sql;
    bool (*match)(int64_t id);
  };
  const std::vector<Query> queries = {
      {"SELECT * FROM t", [](int64_t) { return true; }},
      {"SELECT * FROM t WHERE city = 'c2'",
       [](int64_t id) { return id % 5 == 2; }},
      {"SELECT * FROM t WHERE k IN (3, 5)",
       [](int64_t id) { return id % 7 == 3 || id % 7 == 5; }},
      {"SELECT * FROM t WHERE k = 1 AND city = 'c4'",
       [](int64_t id) { return id % 7 == 1 && id % 5 == 4; }},
  };

  std::atomic<int64_t> acked{0};  // every id below is acknowledged
  std::atomic<int64_t> sent{0};   // no id at or above was sent yet
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::mutex errors_mu;
  std::vector<std::string> errors;
  auto fail = [&](std::string msg) {
    std::lock_guard<std::mutex> lk(errors_mu);
    errors.push_back(std::move(msg));
  };

  std::thread writer([&] {
    try {
      net::RemoteConnection conn("127.0.0.1", server.port());
      int64_t next = 0;
      for (int batch = 0; batch < 120; ++batch) {
        std::vector<Row> rows;
        for (int i = 0; i <= batch % 8; ++i) rows.push_back(row_of(next + i));
        sent.store(next + static_cast<int64_t>(rows.size()));
        conn.insert_batch("t", rows);
        next += static_cast<int64_t>(rows.size());
        acked.store(next);
        // Let a read land before the next batch, so the segment catches up
        // in many small steps rather than in one at the end.
        const int seen = reads.load();
        for (int spin = 0; spin < 2000 && reads.load() == seen; ++spin) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("writer: ") + e.what());
    }
    done.store(true);
  });

  // A result is right when it holds, in id order, exactly the matching ids
  // of some prefix of the stream between `lo` and `hi`.
  auto verify = [&](const Query& q, const sql::ResultSet& rs, int64_t lo,
                    int64_t hi) {
    int64_t next = 0;
    for (const Row& row : rs.rows) {
      while (!q.match(next)) ++next;
      if (row != row_of(next)) {
        return fail(q.sql + ": unexpected row where id " +
                    std::to_string(next) + " belongs");
      }
      ++next;
    }
    while (next < lo && !q.match(next)) ++next;
    if (next < lo) {
      fail(q.sql + ": acknowledged id " + std::to_string(next) + " missing");
    }
    if (next > hi) fail(q.sql + ": rows past what was sent");
  };
  auto reader = [&](size_t first) {
    try {
      net::RemoteConnection conn("127.0.0.1", server.port());
      for (size_t i = first;; ++i) {
        const bool last_round = done.load();
        const Query& q = queries[i % queries.size()];
        const int64_t lo = acked.load();
        sql::ResultSet rs = conn.execute(q.sql);
        verify(q, rs, lo, sent.load());
        reads.fetch_add(1);
        if (last_round && i >= first + queries.size()) break;
      }
    } catch (const std::exception& e) {
      fail(std::string("reader: ") + e.what());
    }
  };
  std::thread reader_a(reader, 0);
  std::thread reader_b(reader, 2);
  writer.join();
  reader_a.join();
  reader_b.join();
  server.stop();
  for (const std::string& e : errors) ADD_FAILURE() << e;

  // Quiescent: both paths agree, and the segment only ever caught up.
  for (const Query& q : queries) {
    db.set_columnar_enabled(false);
    sql::ResultSet row = db.execute(q.sql);
    db.set_columnar_enabled(true);
    sql::ResultSet col = db.execute(q.sql);
    EXPECT_TRUE(col.used_columnar) << q.sql;
    EXPECT_EQ(row.rows, col.rows) << q.sql;
  }
  auto st = db.column_store()->stats();
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.rebuilds, 0u);
  EXPECT_GT(st.appends, 0u);
}

}  // namespace
}  // namespace wre
