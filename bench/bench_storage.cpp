// Microbenchmarks of the storage substrate: B+-tree probes, heap appends,
// and buffer-pool hit/miss costs (google-benchmark) — the server-side cost
// drivers behind Figures 4-7 — plus two bespoke modes:
//   --wal   the durability hot path: group-commit throughput at 1/8/64
//           concurrent committers and recovery-replay bandwidth
//           (BENCH_wal.json)
//   --scan  the table-scan hot path over a WRE-shaped physical table
//           (tag columns + encrypted payload blobs): select_star,
//           non-indexed predicate scans, and indexed probe + row
//           materialization, row path vs the columnar store, as result
//           sets and as wire responses (BENCH_storage.json)
// Either mode exits 2 on a flag it does not read.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <thread>

#include "bench/bench_common.h"
#include "src/columnar/store_manager.h"
#include "src/core/transport.h"
#include "src/storage/bptree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/heap_file.h"
#include "src/storage/wal.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

using namespace wre;

namespace {

struct Scratch {
  std::filesystem::path dir;
  Scratch() {
    dir = std::filesystem::temp_directory_path() /
          ("wre_bench_storage_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
  }
  ~Scratch() { std::filesystem::remove_all(dir); }
  std::string file(const std::string& name) const {
    return (dir / name).string();
  }
};

void BM_BPlusTreeInsert(benchmark::State& state) {
  Scratch scratch;
  storage::DiskManager disk;
  storage::BufferPool pool(disk, 4096);
  storage::BPlusTree tree(
      pool, disk.open_file(scratch.file("insert.idx")));
  Xoshiro256 rng(1);
  for (auto _ : state) {
    tree.insert(rng(), rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeFind(benchmark::State& state) {
  Scratch scratch;
  storage::DiskManager disk;
  storage::BufferPool pool(disk, 4096);
  storage::BPlusTree tree(pool, disk.open_file(scratch.file("find.idx")));
  Xoshiro256 rng(2);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) tree.insert(rng.next_below(10000), i);
  Xoshiro256 probe(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(probe.next_below(10000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeFind)->Arg(10000)->Arg(100000);

void BM_HeapAppend(benchmark::State& state) {
  Scratch scratch;
  storage::DiskManager disk;
  storage::BufferPool pool(disk, 4096);
  storage::HeapFile heap(pool, disk.open_file(scratch.file("heap.tbl")));
  Bytes record(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap.append(record));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapAppend)->Arg(128)->Arg(1024);

void BM_BufferPoolHit(benchmark::State& state) {
  Scratch scratch;
  storage::DiskManager disk;
  storage::FileId f = disk.open_file(scratch.file("pool.db"));
  storage::BufferPool pool(disk, 64);
  disk.allocate_page(f);
  for (auto _ : state) {
    auto guard = pool.fetch(storage::PageId{f, 1});
    benchmark::DoNotOptimize(guard.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissAndEvict(benchmark::State& state) {
  Scratch scratch;
  storage::DiskManager disk;
  storage::FileId f = disk.open_file(scratch.file("evict.db"));
  constexpr int kPages = 256;
  for (int i = 0; i < kPages; ++i) disk.allocate_page(f);
  storage::BufferPool pool(disk, 8);  // far smaller than the working set
  Xoshiro256 rng(4);
  for (auto _ : state) {
    auto page = static_cast<storage::PageNumber>(1 + rng.next_below(kPages));
    auto guard = pool.fetch(storage::PageId{f, page});
    benchmark::DoNotOptimize(guard.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMissAndEvict);

// --------------------------------------------------------------- WAL mode

/// Group-commit throughput: `threads` committers, each issuing
/// `commits_per_thread` single-page commits and waiting for durability —
/// the shape of concurrent bulk-ingest sessions hitting the log. Returns
/// achieved commits/s and how well the writer batched fsyncs.
void bench_wal_commits(bench::JsonReport& report, unsigned threads,
                       int64_t commits_per_thread, bool fsync) {
  bench::ScratchDir scratch("wal_commit");
  storage::WalOptions options;
  options.fsync = fsync;
  storage::Wal wal((std::filesystem::path(scratch.str()) / "wal").string(),
                   options);

  Timer timer;
  std::vector<std::thread> workers;
  std::vector<std::vector<double>> commit_ms(threads);
  for (unsigned t = 0; t < threads; ++t) {
    commit_ms[t].reserve(static_cast<size_t>(commits_per_thread));
    workers.emplace_back([&wal, &commit_ms, t, commits_per_thread] {
      Bytes page(storage::kPageSize, static_cast<uint8_t>(t + 1));
      for (int64_t i = 0; i < commits_per_thread; ++i) {
        storage::WalCommitRequest req;
        req.pages.push_back(storage::WalPageImage{
            "bench.tbl", static_cast<storage::PageNumber>(t + 1), page});
        req.extents.push_back(storage::WalFileExtent{"bench.tbl", 65});
        Timer commit_timer;
        wal.commit(std::move(req)).wait();
        commit_ms[t].push_back(commit_timer.elapsed_millis());
      }
    });
  }
  for (auto& w : workers) w.join();
  double seconds = timer.elapsed_seconds();

  std::vector<double> all_ms;
  for (auto& v : commit_ms) {
    all_ms.insert(all_ms.end(), v.begin(), v.end());
  }
  auto lat = bench::LatencySummary::of(std::move(all_ms));

  auto stats = wal.stats();
  double total = static_cast<double>(stats.commits);
  double commits_per_sec = seconds > 0 ? total / seconds : 0;
  double avg_group =
      stats.groups > 0 ? total / static_cast<double>(stats.groups) : 0;
  std::printf(
      "wal commit  threads=%-3u %10.0f commits/s  avg group %.2f  "
      "max group %llu  fsyncs %llu  p50 %.3f ms  p99 %.3f ms  "
      "p999 %.3f ms\n",
      threads, commits_per_sec, avg_group,
      static_cast<unsigned long long>(stats.max_group),
      static_cast<unsigned long long>(stats.fsyncs), lat.p50, lat.p99,
      lat.p999);
  std::vector<std::pair<std::string, double>> metrics{
      {"commits_per_sec", commits_per_sec},
      {"avg_group_commits", avg_group},
      {"max_group_commits", static_cast<double>(stats.max_group)},
      {"fsyncs", static_cast<double>(stats.fsyncs)},
      {"seconds", seconds}};
  lat.append_metrics("commit_ms_", &metrics);
  report.add("wal_commit/threads:" + std::to_string(threads),
             std::move(metrics));
}

/// Recovery-replay bandwidth: build a log of committed page images, then
/// time Wal::recover applying it onto the data files — the restart cost a
/// crash would pay per MB of un-checkpointed log.
void bench_wal_recovery(bench::JsonReport& report, int64_t commits,
                        int64_t pages_per_commit) {
  bench::ScratchDir scratch("wal_recover");
  std::string wal_dir = (std::filesystem::path(scratch.str()) / "wal").string();
  {
    storage::WalOptions options;
    options.fsync = false;  // build the log fast; replay cost is the subject
    storage::Wal wal(wal_dir, options);
    Xoshiro256 rng(7);
    for (int64_t c = 0; c < commits; ++c) {
      storage::WalCommitRequest req;
      for (int64_t p = 0; p < pages_per_commit; ++p) {
        Bytes page(storage::kPageSize, 0);
        for (auto& b : page) b = static_cast<uint8_t>(rng());
        req.pages.push_back(storage::WalPageImage{
            "bench.tbl",
            static_cast<storage::PageNumber>(1 + (c * pages_per_commit + p) %
                                                     1024),
            std::move(page)});
      }
      req.extents.push_back(storage::WalFileExtent{"bench.tbl", 1025});
      wal.commit(std::move(req));
    }
  }  // destructor drains the queue and closes the segment

  Timer timer;
  auto rec = storage::Wal::recover(wal_dir, scratch.str());
  double seconds = timer.elapsed_seconds();
  double mb = static_cast<double>(rec.bytes_scanned) / (1024.0 * 1024.0);
  double mb_per_sec = seconds > 0 ? mb / seconds : 0;
  std::printf(
      "wal replay  %.1f MB log, %llu commits, %llu pages -> %.1f MB/s\n", mb,
      static_cast<unsigned long long>(rec.commits_applied),
      static_cast<unsigned long long>(rec.pages_replayed), mb_per_sec);
  report.add("wal_recovery_replay",
             {{"replay_mb_per_sec", mb_per_sec},
              {"log_mb", mb},
              {"commits_applied", static_cast<double>(rec.commits_applied)},
              {"pages_replayed", static_cast<double>(rec.pages_replayed)},
              {"seconds", seconds}});
}

// -------------------------------------------------------------- scan mode

/// The physical shape EncryptedConnection gives a WRE table: a primary key,
/// per-encrypted-column (tag, ciphertext-blob) pairs, and a plaintext
/// column. `name_tag` is indexed (the WRE search index); `zip_tag` and
/// `city` are not, so predicates on them exercise the scan path.
sql::Schema scan_schema() {
  return sql::Schema({{"id", sql::ValueType::kInt64, /*primary_key=*/true},
                      {"name_tag", sql::ValueType::kInt64, false},
                      {"name_enc", sql::ValueType::kBlob, false},
                      {"zip_tag", sql::ValueType::kInt64, false},
                      {"zip_enc", sql::ValueType::kBlob, false},
                      {"city", sql::ValueType::kText, false}});
}

struct ScanDataset {
  std::vector<int64_t> name_tags;  // distinct indexed tag values
  std::vector<int64_t> zip_tags;   // distinct non-indexed tag values
  int64_t records = 0;
};

ScanDataset build_scan_table(sql::Database& db, int64_t records,
                             int64_t payload_bytes) {
  constexpr int64_t kNameCardinality = 2000;
  constexpr int64_t kZipCardinality = 100;
  constexpr int64_t kCityCardinality = 50;

  ScanDataset ds;
  ds.records = records;
  Xoshiro256 rng(11);
  for (int64_t i = 0; i < kNameCardinality; ++i) {
    ds.name_tags.push_back(static_cast<int64_t>(rng()));
  }
  for (int64_t i = 0; i < kZipCardinality; ++i) {
    ds.zip_tags.push_back(static_cast<int64_t>(rng()));
  }

  db.create_table("main", scan_schema());
  db.create_index("main", "name_tag");

  std::vector<sql::Row> chunk;
  for (int64_t id = 0; id < records; ++id) {
    Bytes name_enc(static_cast<size_t>(payload_bytes), 0);
    for (auto& b : name_enc) b = static_cast<uint8_t>(rng());
    Bytes zip_enc(16, 0);
    for (auto& b : zip_enc) b = static_cast<uint8_t>(rng());
    chunk.push_back(
        {sql::Value::int64(id),
         sql::Value::int64(
             ds.name_tags[static_cast<size_t>(rng.next_below(
                 static_cast<uint64_t>(kNameCardinality)))]),
         sql::Value::blob(std::move(name_enc)),
         sql::Value::int64(
             ds.zip_tags[static_cast<size_t>(rng.next_below(
                 static_cast<uint64_t>(kZipCardinality)))]),
         sql::Value::blob(std::move(zip_enc)),
         sql::Value::text("city" + std::to_string(rng.next_below(
                                       static_cast<uint64_t>(
                                           kCityCardinality))))});
    if (chunk.size() == 1024) {
      db.insert_batch("main", chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) db.insert_batch("main", chunk);
  return ds;
}

/// Every scan and wire pass runs this many rounds, round-robin across the
/// passes, so each pass's samples spread over the whole run rather than one
/// window of a noisy host.
constexpr int kRounds = 5;

/// One timed query shape: `once` runs it once and returns the rows it
/// produced (0 where only bytes are timed).
struct Pass {
  std::string name;
  bool columnar;
  int64_t iters;
  std::function<size_t()> once;
  std::vector<std::pair<std::string, double>> facts;  // reported verbatim
};

/// Runs every pass `iters` times per round for kRounds rounds and reports
/// each under its name: qps and rows/s over all rounds, the latency tail
/// over all samples, and as latency_ms_p50 the median of the rounds' p50s,
/// with their quartiles.
void run_passes(bench::JsonReport& report, sql::Database& db,
                std::vector<Pass> passes) {
  struct Samples {
    std::vector<double> ms;
    std::vector<double> round_p50s;
    size_t rows = 0;
    double seconds = 0;
  };
  std::vector<Samples> samples(passes.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t p = 0; p < passes.size(); ++p) {
      db.set_columnar_enabled(passes[p].columnar);
      std::vector<double> ms;
      Timer timer;
      for (int64_t i = 0; i < passes[p].iters; ++i) {
        Timer one;
        samples[p].rows += passes[p].once();
        ms.push_back(one.elapsed_millis());
      }
      samples[p].seconds += timer.elapsed_seconds();
      samples[p].round_p50s.push_back(bench::LatencySummary::of(ms).p50);
      samples[p].ms.insert(samples[p].ms.end(), ms.begin(), ms.end());
    }
  }
  for (size_t p = 0; p < passes.size(); ++p) {
    Samples& sp = samples[p];
    const double seconds = sp.seconds;
    const double runs = static_cast<double>(passes[p].iters * kRounds);
    const double qps = seconds > 0 ? runs / seconds : 0;
    const double rows_per_sec =
        seconds > 0 ? static_cast<double>(sp.rows) / seconds : 0;
    std::sort(sp.round_p50s.begin(), sp.round_p50s.end());
    auto quartile = [&](size_t q) {
      return sp.round_p50s[q * (sp.round_p50s.size() - 1) / 4];
    };
    auto lat = bench::LatencySummary::of(std::move(sp.ms));
    lat.p50 = quartile(2);
    std::printf(
        "%-34s %9.0f qps  p50 %7.3f ms [%.3f, %.3f]  p99 %7.3f ms\n",
        passes[p].name.c_str(), qps, lat.p50, quartile(1), quartile(3),
        lat.p99);
    std::vector<std::pair<std::string, double>> metrics{{"qps", qps}};
    if (sp.rows > 0) metrics.emplace_back("rows_per_sec", rows_per_sec);
    metrics.insert(metrics.end(), passes[p].facts.begin(),
                   passes[p].facts.end());
    metrics.emplace_back("seconds", seconds);
    metrics.emplace_back("rounds", kRounds);
    lat.append_metrics("latency_ms_", &metrics);
    metrics.emplace_back("latency_ms_p50_q1", quartile(1));
    metrics.emplace_back("latency_ms_p50_q3", quartile(3));
    report.add(passes[p].name, std::move(metrics));
  }
}

std::string in_list_sql(const std::string& column,
                        const std::vector<int64_t>& values, size_t n) {
  std::string sql = column + " IN (";
  for (size_t i = 0; i < n && i < values.size(); ++i) {
    if (i) sql += ", ";
    sql += std::to_string(values[i]);
  }
  return sql + ")";
}

/// Byte-identity check between the row-path and columnar-path results of
/// one query. The columnar store must be invisible in the output — any
/// divergence is a correctness bug, so the bench aborts loudly.
void require_identical(const std::string& what, const sql::ResultSet& row,
                       const sql::ResultSet& col) {
  if (row.columns == col.columns && row.rows == col.rows) return;
  std::fprintf(stderr,
               "FATAL: %s: columnar result diverges from row path "
               "(%zu vs %zu rows)\n",
               what.c_str(), row.rows.size(), col.rows.size());
  std::exit(1);
}

int run_scan_bench(const bench::Args& args) {
  args.reject_unknown({"scan", "records", "payload-bytes", "star-iters",
                       "scan-iters", "out"},
                      "bench_storage --scan [--records N] [--payload-bytes N] "
                      "[--star-iters N] [--scan-iters N] "
                      "[--out BENCH_storage.json]");
  const int64_t records = args.get_int("records", 20000);
  const int64_t payload = args.get_int("payload-bytes", 64);
  const int64_t star_iters = args.get_int("star-iters", 60);
  const int64_t scan_iters = args.get_int("scan-iters", 200);

  bench::ScratchDir scratch("scan");
  sql::Database db(scratch.str());
  auto ds = build_scan_table(db, records, payload);
  db.checkpoint();

  bench::JsonReport report(args.get_string("out", "BENCH_storage.json"));
  report.set_context("bench", "scan");
  report.set_context("records", std::to_string(records));
  report.set_context("payload_bytes", std::to_string(payload));

  // The four scan shapes: full materialization, non-indexed equality,
  // non-indexed multi-probe IN, and the indexed probe whose row
  // materialization dominates remote/select_star.
  const std::string q_star = "SELECT * FROM main";
  const std::string q_eq = "SELECT id FROM main WHERE zip_tag = " +
                           std::to_string(ds.zip_tags[7]);
  const std::string q_in =
      "SELECT id FROM main WHERE " + in_list_sql("zip_tag", ds.zip_tags, 16);
  const std::string q_index_fetch =
      "SELECT * FROM main WHERE " + in_list_sql("name_tag", ds.name_tags, 32);

  // Reference answers, which also warm both paths. The first columnar
  // execution builds the segment; every columnar answer must be identical
  // to the row path's.
  auto reference = [&](const std::string& sql, bool columnar) {
    db.set_columnar_enabled(columnar);
    return db.execute(sql);
  };
  const sql::ResultSet star_row = reference(q_star, false);
  const sql::ResultSet eq_row = reference(q_eq, false);
  const sql::ResultSet in_row = reference(q_in, false);
  const sql::ResultSet fetch_row = reference(q_index_fetch, false);
  const sql::ResultSet star_col = reference(q_star, true);
  const sql::ResultSet eq_col = reference(q_eq, true);
  const sql::ResultSet in_col = reference(q_in, true);
  const sql::ResultSet fetch_col = reference(q_index_fetch, true);
  require_identical("select_star", star_row, star_col);
  require_identical("predicate_eq", eq_row, eq_col);
  require_identical("predicate_in", in_row, in_col);
  require_identical("index_fetch", fetch_row, fetch_col);
  if (!star_col.used_columnar || !eq_col.used_columnar ||
      !in_col.used_columnar || !fetch_col.used_columnar) {
    std::fprintf(stderr, "FATAL: a columnar pass fell back to the row path\n");
    return 1;
  }
  std::printf("cross-path check: all 4 query shapes byte-identical\n");

  // The remote serving shapes: what a wre_server spends per select_star
  // response, for a full scan and for the plan a tag scan runs (an indexed
  // IN probe on the tag column, rows fetched by pk). Every wire pass times
  // execute_select_wire, the call the server serves from: the row path
  // encodes heap records, the columnar path encodes straight from the
  // packed columns (late materialization — no Value is ever built).
  sql::SelectStmt star_stmt;
  star_stmt.star = true;
  star_stmt.table = "main";
  std::vector<uint64_t> fetch_tags;
  for (size_t i = 0; i < 32; ++i) {
    fetch_tags.push_back(static_cast<uint64_t>(ds.name_tags[i]));
  }
  const sql::SelectStmt fetch_stmt =
      core::tag_scan_stmt("main", "name_tag", fetch_tags, /*star=*/true);
  auto wire_reference = [&](const sql::SelectStmt& stmt, bool columnar) {
    db.set_columnar_enabled(columnar);
    Bytes out;
    db.execute_select_wire(stmt, &out);
    return out;
  };
  const Bytes star_row_bytes = wire_reference(star_stmt, false);
  const Bytes star_col_bytes = wire_reference(star_stmt, true);
  const Bytes fetch_row_bytes = wire_reference(fetch_stmt, false);
  const Bytes fetch_col_bytes = wire_reference(fetch_stmt, true);
  // Identity is over the logical result. The trailer of executor
  // counters (rows_affected, index_probes, heap_fetches as u64, used_index
  // as u8) legitimately differs by plan: the heap scan reports
  // heap_fetches, the columnar scan reports none.
  auto same_rows = [](const Bytes& row_bytes, const Bytes& col_bytes) {
    constexpr size_t kTrailer = sql::kResultTrailerBytes;
    return row_bytes.size() >= kTrailer &&
           row_bytes.size() == col_bytes.size() &&
           std::equal(row_bytes.begin(), row_bytes.end() - kTrailer,
                      col_bytes.begin());
  };
  if (!same_rows(star_row_bytes, star_col_bytes) ||
      !same_rows(fetch_row_bytes, fetch_col_bytes)) {
    std::fprintf(stderr,
                 "FATAL: columnar wire encoding diverges from the row "
                 "path (select_star %zu vs %zu bytes, index_fetch %zu vs "
                 "%zu bytes)\n",
                 star_col_bytes.size(), star_row_bytes.size(),
                 fetch_col_bytes.size(), fetch_row_bytes.size());
    return 1;
  }
  std::printf("wire cross-path check: responses byte-identical\n");

  auto scan_pass = [&](const char* name, const std::string& sql,
                       bool columnar, int64_t iters,
                       const sql::ResultSet& ref) {
    return Pass{name, columnar, iters,
                [&db, &sql] { return db.execute(sql).rows.size(); },
                {{"result_rows", static_cast<double>(ref.rows.size())}}};
  };
  // execute_select_wire appends: a serving loop reuses its response
  // buffer, so the bench does too. Each response must equal the reference.
  Bytes reuse;
  auto wire_pass = [&](const char* name, const sql::SelectStmt& stmt,
                       bool columnar, int64_t iters, const Bytes& ref) {
    return Pass{name, columnar, iters,
                [&db, &stmt, &ref, &reuse, name]() -> size_t {
                  reuse.clear();
                  db.execute_select_wire(stmt, &reuse);
                  if (reuse != ref) {
                    std::fprintf(stderr,
                                 "FATAL: %s: response changed between runs\n",
                                 name);
                    std::exit(1);
                  }
                  return 0;
                },
                {{"response_bytes", static_cast<double>(ref.size())}}};
  };
  run_passes(
      report, db,
      {scan_pass("scan/select_star/row", q_star, false, star_iters, star_row),
       scan_pass("scan/predicate_eq/row", q_eq, false, scan_iters, eq_row),
       scan_pass("scan/predicate_in/row", q_in, false, scan_iters, in_row),
       scan_pass("scan/index_fetch/row", q_index_fetch, false, scan_iters,
                 fetch_row),
       scan_pass("scan/select_star/columnar", q_star, true, star_iters,
                 star_col),
       scan_pass("scan/predicate_eq/columnar", q_eq, true, scan_iters,
                 eq_col),
       scan_pass("scan/predicate_in/columnar", q_in, true, scan_iters,
                 in_col),
       scan_pass("scan/index_fetch/columnar", q_index_fetch, true, scan_iters,
                 fetch_col),
       wire_pass("scan/select_star/row_wire", star_stmt, false, star_iters,
                 star_row_bytes),
       wire_pass("scan/select_star/columnar_wire", star_stmt, true,
                 star_iters, star_col_bytes),
       wire_pass("scan/index_fetch/row_wire", fetch_stmt, false, scan_iters,
                 fetch_row_bytes),
       wire_pass("scan/index_fetch/columnar_wire", fetch_stmt, true,
                 scan_iters, fetch_col_bytes)});

  if (auto* store = db.column_store()) {
    auto stats = store->stats();
    report.add("scan/column_store",
               {{"segments", static_cast<double>(stats.segments)},
                {"bytes", static_cast<double>(stats.bytes)},
                {"builds", static_cast<double>(stats.builds)},
                {"snapshot_hits", static_cast<double>(stats.hits)}});
  }

  report.write();
  return 0;
}

int run_wal_bench(const bench::Args& args) {
  args.reject_unknown({"wal", "commits", "fsync", "replay-commits",
                       "replay-pages", "out"},
                      "bench_storage --wal [--commits N] [--fsync 0|1] "
                      "[--replay-commits N] [--replay-pages N] "
                      "[--out BENCH_wal.json]");
  const int64_t commits = args.get_int("commits", 2000);
  const bool fsync = args.get_int("fsync", 1) != 0;
  const int64_t replay_commits = args.get_int("replay-commits", 512);
  const int64_t replay_pages = args.get_int("replay-pages", 8);

  bench::JsonReport report(args.get_string("out", "BENCH_wal.json"));
  report.set_context("bench", "wal");
  report.set_context("fsync", fsync ? "1" : "0");
  report.set_context("commits_per_thread", std::to_string(commits));

  for (unsigned threads : {1u, 8u, 64u}) {
    bench_wal_commits(report, threads, commits, fsync);
  }
  bench_wal_recovery(report, replay_commits, replay_pages);
  report.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  if (args.has("wal")) return run_wal_bench(args);
  if (args.has("scan")) return run_scan_bench(args);

  bench::GBenchArgs gargs(argc, argv, "BENCH_storage.json");
  benchmark::Initialize(gargs.argc(), gargs.argv());
  if (benchmark::ReportUnrecognizedArguments(*gargs.argc(), gargs.argv())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
