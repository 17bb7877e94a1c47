// The write-ahead log (DESIGN.md §5.5): record round-trips through crash
// recovery, CRC rejection of bit flips, torn-tail truncation, segment
// rotation, group-commit batching, fault-injected torn writes, and the
// Database-level durability contract (acknowledged writes survive a copy
// taken before any data-file flush; unacknowledged ones never leak).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>
#include <vector>

#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/sql/database.h"
#include "src/storage/fault_injector.h"
#include "src/storage/wal.h"
#include "src/util/crc32c.h"
#include "src/util/error.h"
#include "tests/test_util.h"

using namespace wre;
using namespace wre::storage;
using wre::testing::TempDir;

namespace fs = std::filesystem;

namespace {

Bytes page_filled(uint8_t value) {
  Bytes b(kPageSize, value);
  return b;
}

Bytes read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// Reads a replayed data file, verifies each physical page's CRC32C header
/// and returns the concatenated logical (kPageSize) images — so assertions
/// below keep speaking in logical page offsets.
Bytes logical_pages(const fs::path& path) {
  Bytes raw = read_all(path);
  EXPECT_EQ(raw.size() % kPhysicalPageBytes, 0u) << path;
  Bytes out;
  out.reserve(raw.size() / kPhysicalPageBytes * kPageSize);
  for (size_t off = 0; off + kPhysicalPageBytes <= raw.size();
       off += kPhysicalPageBytes) {
    EXPECT_EQ(load_le32(raw.data() + off),
              util::crc32c(raw.data() + off + kPageDiskHeaderBytes, kPageSize))
        << path << " page " << off / kPhysicalPageBytes;
    out.insert(out.end(),
               raw.begin() + static_cast<ptrdiff_t>(off + kPageDiskHeaderBytes),
               raw.begin() + static_cast<ptrdiff_t>(off + kPhysicalPageBytes));
  }
  return out;
}

std::vector<fs::path> wal_segments(const fs::path& wal_dir) {
  std::vector<fs::path> out;
  if (!fs::exists(wal_dir)) return out;
  for (const auto& e : fs::directory_iterator(wal_dir)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      out.push_back(e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One-page-per-commit workload: commit i writes page 0 of "t.heap" filled
/// with byte i+1 and extends the file to 1 page. After recovering any
/// prefix of the log, page 0 holds the byte of the last applied commit.
void append_counter_commits(Wal& wal, int n) {
  for (int i = 0; i < n; ++i) {
    WalCommitRequest req;
    req.pages.push_back(
        WalPageImage{"t.heap", 0, page_filled(static_cast<uint8_t>(i + 1))});
    req.extents.push_back(WalFileExtent{"t.heap", 1});
    wal.commit_sync(std::move(req));
  }
}

/// Copies `from` into a fresh directory under `to` (recursive).
void copy_dir(const fs::path& from, const fs::path& to) {
  fs::create_directories(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

}  // namespace

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().reset(); }
};

// ---------------------------------------------------------------------------
// Record round-trips.

TEST_F(WalTest, CommitRoundTripsThroughRecovery) {
  TempDir dir("wal_rt");
  fs::path wal_dir = dir.path() / "wal";
  fs::path data_dir = dir.path() / "data";
  fs::create_directories(data_dir);

  {
    Wal wal(wal_dir.string());
    WalCommitRequest req;
    req.pages.push_back(WalPageImage{"a.heap", 0, page_filled(0x11)});
    req.pages.push_back(WalPageImage{"a.heap", 2, page_filled(0x22)});
    req.pages.push_back(WalPageImage{"b.idx", 1, page_filled(0x33)});
    req.extents.push_back(WalFileExtent{"a.heap", 3});
    req.extents.push_back(WalFileExtent{"b.idx", 2});
    req.catalog = "table t 1\ncol id INTEGER 1\n";
    wal.commit_sync(std::move(req));

    WalStats stats = wal.stats();
    EXPECT_EQ(stats.commits, 1u);
    EXPECT_EQ(stats.records, 7u);  // 3 pages + 2 extents + catalog + commit
    EXPECT_GE(stats.fsyncs, 1u);
  }

  WalRecoveryStats rec = Wal::recover(wal_dir.string(), data_dir.string());
  EXPECT_EQ(rec.commits_applied, 1u);
  EXPECT_EQ(rec.pages_replayed, 3u);
  EXPECT_EQ(rec.extents_applied, 2u);
  EXPECT_EQ(rec.catalogs_replayed, 1u);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(rec.uncommitted_records_discarded, 0u);

  Bytes a = logical_pages(data_dir / "a.heap");
  ASSERT_EQ(a.size(), 3 * kPageSize);
  EXPECT_EQ(a[0], 0x11);
  EXPECT_EQ(a[2 * kPageSize], 0x22);
  EXPECT_EQ(a[kPageSize], 0x00);  // untouched page stays zero (from extent)
  Bytes b = logical_pages(data_dir / "b.idx");
  ASSERT_EQ(b.size(), 2 * kPageSize);
  EXPECT_EQ(b[kPageSize], 0x33);
  std::string catalog(reinterpret_cast<const char*>(
                          read_all(data_dir / "catalog.wre").data()),
                      read_all(data_dir / "catalog.wre").size());
  EXPECT_EQ(catalog, "table t 1\ncol id INTEGER 1\n");

  // The log is spent: segments are deleted, a second recovery is a no-op.
  EXPECT_TRUE(wal_segments(wal_dir).empty());
  WalRecoveryStats again = Wal::recover(wal_dir.string(), data_dir.string());
  EXPECT_EQ(again.commits_applied, 0u);
}

TEST_F(WalTest, RecoveryOfMissingDirIsNoOp) {
  TempDir dir("wal_none");
  WalRecoveryStats rec =
      Wal::recover((dir.path() / "wal").string(), dir.str());
  EXPECT_EQ(rec.segments_scanned, 0u);
  EXPECT_EQ(rec.commits_applied, 0u);
  EXPECT_FALSE(rec.tail_truncated);
}

TEST_F(WalTest, OversizedPageImageIsRejected) {
  TempDir dir("wal_bad");
  Wal wal((dir.path() / "wal").string());
  WalCommitRequest req;
  req.pages.push_back(WalPageImage{"t.heap", 0, Bytes(kPageSize - 1, 0xff)});
  EXPECT_THROW(wal.commit(std::move(req)), StorageError);
}

// ---------------------------------------------------------------------------
// Corruption: bit flips and torn tails. Property: recovery applies exactly
// a prefix of the committed sequence, never throws, and never replays a
// record at or after the corruption point.

TEST_F(WalTest, TornTailTruncationSweep) {
  TempDir master("wal_torn_master");
  fs::path wal_dir = master.path() / "wal";
  constexpr int kCommits = 8;
  {
    Wal wal(wal_dir.string());
    append_counter_commits(wal, kCommits);
  }
  auto segments = wal_segments(wal_dir);
  ASSERT_EQ(segments.size(), 1u);
  Bytes full = read_all(segments[0]);

  // Truncate the segment at every 97-byte stride (plus the exact end).
  for (size_t cut = 17; cut <= full.size(); cut += 97) {
    TempDir trial("wal_torn_trial");
    fs::path twal = trial.path() / "wal";
    fs::path tdata = trial.path() / "data";
    fs::create_directories(twal);
    fs::create_directories(tdata);
    {
      std::ofstream out(twal / segments[0].filename(), std::ios::binary);
      out.write(reinterpret_cast<const char*>(full.data()),
                static_cast<std::streamsize>(cut));
    }

    WalRecoveryStats rec = Wal::recover(twal.string(), tdata.string());
    EXPECT_LE(rec.commits_applied, static_cast<uint64_t>(kCommits));
    if (cut < full.size()) {
      // Something was cut off: either mid-record (tail_truncated) or on a
      // record boundary after the last commit marker of the prefix.
      EXPECT_LT(rec.commits_applied, static_cast<uint64_t>(kCommits));
    }
    if (rec.commits_applied > 0) {
      Bytes heap = logical_pages(tdata / "t.heap");
      ASSERT_EQ(heap.size(), kPageSize);
      // Last-applied commit's byte — proof that exactly the prefix ran.
      EXPECT_EQ(heap[0], static_cast<uint8_t>(rec.commits_applied));
    } else {
      EXPECT_FALSE(fs::exists(tdata / "t.heap"));
    }
  }
}

TEST_F(WalTest, BitFlipSweepNeverReplaysCorruptRecords) {
  TempDir master("wal_flip_master");
  fs::path wal_dir = master.path() / "wal";
  constexpr int kCommits = 6;
  {
    Wal wal(wal_dir.string());
    append_counter_commits(wal, kCommits);
  }
  auto segments = wal_segments(wal_dir);
  ASSERT_EQ(segments.size(), 1u);
  Bytes full = read_all(segments[0]);

  // Flip one bit at every 211-byte stride past the segment header.
  for (size_t pos = 16; pos < full.size(); pos += 211) {
    TempDir trial("wal_flip_trial");
    fs::path twal = trial.path() / "wal";
    fs::path tdata = trial.path() / "data";
    fs::create_directories(twal);
    fs::create_directories(tdata);
    Bytes flipped = full;
    flipped[pos] ^= 0x40;
    {
      std::ofstream out(twal / segments[0].filename(), std::ios::binary);
      out.write(reinterpret_cast<const char*>(flipped.data()),
                static_cast<std::streamsize>(flipped.size()));
    }

    WalRecoveryStats rec = Wal::recover(twal.string(), tdata.string());
    // The flip lands inside some record; everything before it replays,
    // nothing from it onward does.
    EXPECT_TRUE(rec.tail_truncated) << "flip at " << pos;
    EXPECT_LT(rec.commits_applied, static_cast<uint64_t>(kCommits));
    if (rec.commits_applied > 0) {
      Bytes heap = logical_pages(tdata / "t.heap");
      ASSERT_EQ(heap.size(), kPageSize);
      EXPECT_EQ(heap[0], static_cast<uint8_t>(rec.commits_applied));
    }
  }
}

TEST_F(WalTest, CorruptSegmentHeaderReplaysNothing) {
  TempDir dir("wal_hdr");
  fs::path wal_dir = dir.path() / "wal";
  fs::path data_dir = dir.path() / "data";
  fs::create_directories(data_dir);
  {
    Wal wal(wal_dir.string());
    append_counter_commits(wal, 3);
  }
  auto segments = wal_segments(wal_dir);
  ASSERT_EQ(segments.size(), 1u);
  Bytes full = read_all(segments[0]);
  full[0] ^= 0xff;  // clobber the magic
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(full.size()));
  }
  WalRecoveryStats rec = Wal::recover(wal_dir.string(), data_dir.string());
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_EQ(rec.commits_applied, 0u);
  EXPECT_FALSE(fs::exists(data_dir / "t.heap"));
}

// ---------------------------------------------------------------------------
// Segment rotation.

TEST_F(WalTest, SegmentsRotateAndAllReplay) {
  TempDir dir("wal_rot");
  fs::path wal_dir = dir.path() / "wal";
  fs::path data_dir = dir.path() / "data";
  fs::create_directories(data_dir);
  constexpr int kCommits = 24;
  {
    WalOptions opts;
    opts.segment_bytes = 8 * kPageSize;  // rotate every couple of commits
    Wal wal(wal_dir.string(), opts);
    append_counter_commits(wal, kCommits);
    EXPECT_GE(wal.stats().segments_created, 3u);
  }
  EXPECT_GE(wal_segments(wal_dir).size(), 3u);

  WalRecoveryStats rec = Wal::recover(wal_dir.string(), data_dir.string());
  EXPECT_GE(rec.segments_scanned, 3u);
  EXPECT_EQ(rec.commits_applied, static_cast<uint64_t>(kCommits));
  EXPECT_FALSE(rec.tail_truncated);
  Bytes heap = logical_pages(data_dir / "t.heap");
  EXPECT_EQ(heap[0], static_cast<uint8_t>(kCommits));
}

TEST_F(WalTest, TruncateAllResetsReplayBound) {
  TempDir dir("wal_trunc");
  fs::path wal_dir = dir.path() / "wal";
  Wal wal(wal_dir.string());
  append_counter_commits(wal, 10);
  uint64_t before = wal.live_bytes();
  EXPECT_GT(before, 10 * kPageSize);
  wal.truncate_all();
  EXPECT_LT(wal.live_bytes(), 64u);  // fresh segment header only
  // The log keeps accepting commits afterwards.
  append_counter_commits(wal, 2);
  EXPECT_GT(wal.live_bytes(), 2 * kPageSize);
}

// ---------------------------------------------------------------------------
// Group commit.

TEST_F(WalTest, GroupCommitBatchesConcurrentCommits) {
  TempDir dir("wal_group");
  Wal wal((dir.path() / "wal").string());

  // The first commit's group holds its sync round open (on_durable runs on
  // the log writer) until every other committer's commit() has returned,
  // so all of those are queued together behind it.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  constexpr int kOthers = kThreads * kPerThread - 1;
  std::latch others_enqueued(kOthers);
  WalCommitRequest first;
  first.pages.push_back(WalPageImage{"t.heap", 0, page_filled(0xcd)});
  first.on_durable = [&others_enqueued] { others_enqueued.wait(); };
  CommitHandle first_done = wal.commit(std::move(first));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &others_enqueued, t] {
      std::vector<CommitHandle> handles;
      for (int i = (t == 0 ? 1 : 0); i < kPerThread; ++i) {
        WalCommitRequest req;
        req.pages.push_back(WalPageImage{
            "t.heap", static_cast<PageNumber>(t), page_filled(0xcd)});
        handles.push_back(wal.commit(std::move(req)));
        others_enqueued.count_down();
      }
      for (auto& h : handles) h.wait();
    });
  }
  for (auto& t : threads) t.join();
  first_done.wait();

  WalStats stats = wal.stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads * kPerThread));
  // Commits queued behind a sync round share the next one: strictly fewer
  // sync rounds than commits, and at least one real batch.
  EXPECT_LT(stats.groups, stats.commits);
  EXPECT_GE(stats.max_group, 2u);
  EXPECT_EQ(stats.fsyncs, stats.groups);
}

// ---------------------------------------------------------------------------
// Fault injection: torn writes.

TEST_F(WalTest, InjectedTornWriteBreaksLogButKeepsPrefix) {
  TempDir dir("wal_fault");
  fs::path wal_dir = dir.path() / "wal";
  fs::path data_dir = dir.path() / "data";
  fs::create_directories(data_dir);
  {
    Wal wal(wal_dir.string());
    append_counter_commits(wal, 2);  // durable prefix

    // The next record write persists only 10 bytes, then fails — like a
    // crash mid-write.
    FaultInjector::instance().arm_wal_torn_after(10);
    WalCommitRequest req;
    req.pages.push_back(WalPageImage{"t.heap", 0, page_filled(0xee)});
    EXPECT_THROW(wal.commit(std::move(req)).wait(), StorageError);

    // The log is broken: later commits must fail fast, not silently lose
    // durability.
    FaultInjector::instance().reset();
    WalCommitRequest after;
    after.pages.push_back(WalPageImage{"t.heap", 0, page_filled(0xdd)});
    EXPECT_THROW(wal.commit(std::move(after)), StorageError);
  }

  WalRecoveryStats rec = Wal::recover(wal_dir.string(), data_dir.string());
  EXPECT_EQ(rec.commits_applied, 2u);
  EXPECT_TRUE(rec.tail_truncated);  // the 10-byte torn prefix is detected
  Bytes heap = logical_pages(data_dir / "t.heap");
  EXPECT_EQ(heap[0], 2);  // never 0xee
}

// ---------------------------------------------------------------------------
// Database-level durability: the log-before-data contract end to end.

namespace {

sql::Schema kv_schema() {
  return sql::Schema({{"id", sql::ValueType::kInt64, /*primary_key=*/true},
                      {"tag", sql::ValueType::kInt64, false},
                      {"body", sql::ValueType::kText, false}});
}

std::vector<sql::Row> make_rows(int from, int count) {
  std::vector<sql::Row> rows;
  for (int i = from; i < from + count; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 7),
                    sql::Value::text("row-" + std::to_string(i))});
  }
  return rows;
}

}  // namespace

TEST_F(WalTest, CommittedWritesSurviveSimulatedCrash) {
  TempDir dir("wal_db");
  sql::DatabaseOptions opts;
  opts.durability = true;
  sql::Database db(dir.str(), opts);
  db.create_table("kv", kv_schema());
  db.create_index("kv", "tag");
  db.insert_batch("kv", make_rows(0, 100));
  db.commit();

  // Simulated crash: snapshot the directory while the database is still
  // open — no checkpoint, no destructor flush. The data files in the copy
  // may be arbitrarily stale (the catalog file may not even exist); only
  // the WAL carries the committed state.
  TempDir crashed("wal_db_crash");
  fs::path copy = crashed.path() / "db";
  copy_dir(dir.path(), copy);

  sql::Database reopened(copy.string());
  EXPECT_GE(reopened.recovery_stats().commits_applied, 1u);
  EXPECT_GT(reopened.recovery_stats().pages_replayed, 0u);
  ASSERT_TRUE(reopened.has_table("kv"));
  auto rs = reopened.execute("SELECT count(*) FROM kv");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int64(), 100);
  // The index came back too (catalog replay), and it works.
  auto by_tag = reopened.execute("SELECT id FROM kv WHERE tag = 3");
  EXPECT_TRUE(by_tag.used_index);
  EXPECT_FALSE(by_tag.rows.empty());
}

TEST_F(WalTest, UncommittedWritesAreNeverVisibleAfterCrash) {
  TempDir dir("wal_db_unc");
  sql::DatabaseOptions opts;
  opts.durability = true;
  sql::Database db(dir.str(), opts);
  db.create_table("kv", kv_schema());
  db.insert_batch("kv", make_rows(0, 50));
  db.commit();
  // 50 more rows, deliberately not committed: never acknowledged, so a
  // crash must roll them away entirely.
  db.insert_batch("kv", make_rows(50, 50));

  TempDir crashed("wal_db_unc_crash");
  fs::path copy = crashed.path() / "db";
  copy_dir(dir.path(), copy);

  sql::Database reopened(copy.string());
  auto rs = reopened.execute("SELECT count(*) FROM kv");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int64(), 50);
  auto ids = reopened.execute("SELECT id FROM kv WHERE id = 75");
  EXPECT_TRUE(ids.rows.empty());
}

TEST_F(WalTest, CheckpointTruncatesLogAndPreservesData) {
  TempDir dir("wal_db_ckpt");
  sql::DatabaseOptions opts;
  opts.durability = true;
  {
    sql::Database db(dir.str(), opts);
    db.create_table("kv", kv_schema());
    db.insert_batch("kv", make_rows(0, 200));
    db.commit();
    ASSERT_NE(db.wal(), nullptr);
    uint64_t before = db.wal()->live_bytes();
    EXPECT_GT(before, static_cast<uint64_t>(kPageSize));
    db.checkpoint();
    EXPECT_LT(db.wal()->live_bytes(), 64u);
  }
  // Clean reopen: nothing to replay, data served straight from the files.
  sql::Database reopened(dir.str(), opts);
  EXPECT_EQ(reopened.recovery_stats().commits_applied, 0u);
  auto rs = reopened.execute("SELECT count(*) FROM kv");
  EXPECT_EQ(rs.rows[0][0].as_int64(), 200);
}

TEST_F(WalTest, DestructorCheckpointsDurableDatabase) {
  TempDir dir("wal_db_dtor");
  sql::DatabaseOptions opts;
  opts.durability = true;
  {
    sql::Database db(dir.str(), opts);
    db.create_table("kv", kv_schema());
    db.insert_batch("kv", make_rows(0, 25));
    // No explicit commit: the destructor's checkpoint covers it.
  }
  sql::Database reopened(dir.str());
  EXPECT_EQ(reopened.recovery_stats().commits_applied, 0u);
  auto rs = reopened.execute("SELECT count(*) FROM kv");
  EXPECT_EQ(rs.rows[0][0].as_int64(), 25);
}

TEST_F(WalTest, ClearCacheCommitsBeforeFlushing) {
  // clear_cache() flushes every frame to the data files; under WAL it must
  // commit first, or the files would receive unlogged (unacknowledged)
  // mutations — breaking both directions of the durability contract.
  TempDir dir("wal_db_cc");
  sql::DatabaseOptions opts;
  opts.durability = true;
  sql::Database db(dir.str(), opts);
  db.create_table("kv", kv_schema());
  db.insert_batch("kv", make_rows(0, 10));
  db.clear_cache();  // implicit commit; would throw on no-steal violation
  EXPECT_GE(db.wal()->stats().commits, 1u);
  auto rs = db.execute("SELECT count(*) FROM kv");
  EXPECT_EQ(rs.rows[0][0].as_int64(), 10);
}

// ---------------------------------------------------------------------------
// Server integration: the periodic checkpoint bounds recovery replay.

TEST_F(WalTest, PeriodicServerCheckpointBoundsReplay) {
  TempDir dir("wal_srv_ckpt");
  sql::DatabaseOptions db_opts;
  db_opts.durability = true;
  sql::Database db(dir.str(), db_opts);

  net::ServerOptions srv_opts;
  srv_opts.port = 0;
  srv_opts.worker_threads = 2;
  srv_opts.checkpoint_interval_ms = 50;
  net::Server server(db, srv_opts);
  server.start();

  net::RemoteConnection client("127.0.0.1", server.port());
  client.create_table("kv", kv_schema());
  client.insert_batch("kv", make_rows(0, 300));

  // Wait for at least one background checkpoint tick.
  for (int i = 0; i < 100 && server.checkpoints() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.checkpoints(), 1u);
  // The checkpoint truncated the log: a crash now would replay (almost)
  // nothing, regardless of how much was ingested.
  EXPECT_LT(db.wal()->live_bytes(), static_cast<uint64_t>(kPageSize));

  // Reads keep working throughout (the checkpoint holds only a shared
  // lock), and the data is all there.
  EXPECT_EQ(client.row_count("kv"), 300u);
  server.stop();
}

// ---------------------------------------------------------------------------
// No-steal window: collected frames must stay unevictable (and unflushable)
// until their commit group's fdatasync lands. Clearing the mark at enqueue
// time let concurrent evictions push not-yet-durable mutations into the
// data files — a crash in the pending-fsync window then left a partially
// applied, unacknowledged batch that redo-only recovery cannot undo.

TEST_F(WalTest, CollectedFramesStayNoStealUntilDurable) {
  TempDir dir("wal_nosteal");
  DiskManager disk;
  FileId f = disk.open_file((dir.path() / "a.db").string());
  BufferPool pool(disk, 2);
  pool.set_wal_tracking(true);

  PageNumber p = disk.allocate_page(f);
  {
    PageGuard g = pool.fetch({f, p});
    g.mutable_data()[0] = 0x77;
  }
  auto set = pool.collect_wal_dirty();
  ASSERT_EQ(set.images.size(), 1u);

  // Enqueued but not durable: neither eviction pressure (clean pages
  // churning a 2-frame pool) nor an explicit flush may write the frame.
  for (int i = 0; i < 4; ++i) {
    PageNumber q = disk.allocate_page(f);
    PageGuard g = pool.fetch({f, q});
  }
  pool.flush_all();
  uint8_t back[kPageSize];
  disk.read_page({f, p}, back);
  EXPECT_EQ(back[0], 0x00);

  // Once the group is durable the frame flushes normally.
  pool.wal_durable(set.epoch);
  pool.flush_all();
  disk.read_page({f, p}, back);
  EXPECT_EQ(back[0], 0x77);
}

TEST_F(WalTest, AbortedCollectionIsRecollected) {
  // If Wal::commit throws before enqueueing (broken log, oversized
  // record), the harvested images are unlogged again: wal_abort puts the
  // frames back on the dirty list so the next collection re-captures them.
  TempDir dir("wal_abort");
  DiskManager disk;
  FileId f = disk.open_file((dir.path() / "a.db").string());
  BufferPool pool(disk, 4);
  pool.set_wal_tracking(true);

  PageNumber p = disk.allocate_page(f);
  {
    PageGuard g = pool.fetch({f, p});
    g.mutable_data()[0] = 0x42;
  }
  auto first = pool.collect_wal_dirty();
  ASSERT_EQ(first.images.size(), 1u);
  EXPECT_TRUE(pool.collect_wal_dirty().images.empty());  // already harvested

  pool.wal_abort(first.epoch);
  auto second = pool.collect_wal_dirty();
  ASSERT_EQ(second.images.size(), 1u);
  EXPECT_EQ(second.images[0].first, (PageId{f, p}));
  EXPECT_EQ(second.images[0].second[0], 0x42);
}

TEST_F(WalTest, OnDurableRunsBeforeHandleReady) {
  // The engine releases frames from their no-steal window via the
  // on_durable callback; a waiter observing its commit acknowledged must
  // also observe the release, so the callback fires strictly before the
  // handle becomes ready. sync() is the queue barrier checkpoint uses to
  // wait out *other* writers' in-flight groups.
  TempDir dir("wal_ondur");
  Wal wal((dir.path() / "wal").string());
  std::atomic<bool> durable{false};
  WalCommitRequest req;
  req.pages.push_back(WalPageImage{"t.heap", 0, page_filled(0x01)});
  req.on_durable = [&] { durable.store(true); };
  CommitHandle h = wal.commit(std::move(req));
  h.wait();
  EXPECT_TRUE(durable.load());
  wal.sync();  // barrier returns on a drained queue too
}

TEST_F(WalTest, OversizedCatalogRecordIsRejectedAtCommitTime) {
  // Recovery treats any record body over its 1 MiB bound as corruption and
  // truncates the tail there. The writer must enforce the same bound: a
  // larger catalog would commit, be acknowledged, and then be silently
  // discarded — along with every later commit — on the next recovery.
  TempDir dir("wal_bigcat");
  Wal wal((dir.path() / "wal").string());
  WalCommitRequest big;
  big.catalog = std::string(2u << 20, 'x');
  EXPECT_THROW(wal.commit(std::move(big)), StorageError);
  // Rejected before enqueue: the log itself stays healthy.
  WalCommitRequest ok;
  ok.pages.push_back(WalPageImage{"t.heap", 0, page_filled(0x01)});
  ok.extents.push_back(WalFileExtent{"t.heap", 1});
  wal.commit_sync(std::move(ok));
  EXPECT_EQ(wal.stats().commits, 1u);
}

TEST_F(WalTest, SevenDigitSegmentNamesRecover) {
  // segment_name() zero-pads to six digits but emits seven or more once
  // the monotonically growing sequence passes 999999; a parser capped at
  // six digits misread the name, failed the header seq check, and threw
  // away the segment's committed records.
  TempDir dir("wal_seq7");
  fs::path wal_dir = dir.path() / "wal";
  fs::path data_dir = dir.path() / "data";
  fs::create_directories(data_dir);
  {
    Wal wal(wal_dir.string());
    append_counter_commits(wal, 3);
  }
  auto segs = wal_segments(wal_dir);
  ASSERT_EQ(segs.size(), 1u);
  Bytes data = read_all(segs[0]);
  ASSERT_GE(data.size(), 16u);
  constexpr uint64_t kBigSeq = 1234567;
  for (int i = 0; i < 8; ++i) {
    data[8 + i] = static_cast<uint8_t>((kBigSeq >> (8 * i)) & 0xff);
  }
  fs::remove(segs[0]);
  {
    std::ofstream out(wal_dir / "wal-1234567.log", std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  WalRecoveryStats rec = Wal::recover(wal_dir.string(), data_dir.string());
  EXPECT_EQ(rec.commits_applied, 3u);
  EXPECT_FALSE(rec.tail_truncated);
  Bytes page = logical_pages(data_dir / "t.heap");
  ASSERT_EQ(page.size(), kPageSize);
  EXPECT_EQ(page[0], 3);  // last committed counter value
}
