// Loopback benchmark of the network service layer: the full WRE query path
// with a real TCP hop between client and server.
//
// The harness starts a net::Server over a scratch database in this process,
// connects a net::RemoteConnection to it over 127.0.0.1, and drives an
// EncryptedConnection through that transport — so ingest and every query
// pay the complete remote cost: client-side crypto, wire encoding, TCP,
// server-side execution, and result decoding. As a correctness gate, every
// remote query is replayed through an in-process EncryptedConnection that
// open_table()s the same manifest; the id sets must be identical.
//
// Emits BENCH_net.json (via bench::JsonReport): loopback queries/s plus
// p50/p99/p999 per-query latency for SELECT id and SELECT *, and the
// remote ingest rate.
//
// A final chaos pass re-runs the SELECT id workload with the socket-level
// fault injector armed at --chaos-rate (default 1% per socket op: resets and
// torn writes), reporting throughput/p99 with the retry machinery absorbing
// the faults, plus the retry/overload/dedup counters from both sides.
// --chaos-rate 0 skips the pass.
//
// Connection-pool pass: --connections fans a multi-probe SELECT workload
// over a client-side connection pool and compares it with the same
// statements run one at a time, in 5 alternating pairs (median speedup and
// quartiles); every pass must return the same row counts. 0/1 skips it.
//
// A columnar sweep re-runs the workload with the server's in-memory
// column store enabled (--scans full-table SELECT * iterations per path,
// 0 skips it), gating on row-vs-columnar result parity before reporting
// the scan speedup.
//
//   $ ./bench_remote_query [--records N] [--queries Q] [--lambda L]
//       [--server-threads N] [--chaos-rate P] [--connections C]
//       [--scans K] [--out BENCH_net.json]
// An unknown flag exits 2 before anything runs.
#include <algorithm>
#include <atomic>
#include <iomanip>
#include <iostream>
#include <thread>

#include "bench/bench_common.h"
#include "src/net/net_fault.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"

using namespace wre;

namespace {

std::vector<int64_t> sorted(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.reject_unknown(
      {"records", "queries", "lambda", "server-threads", "chaos-rate",
       "connections", "scans", "out"},
      "bench_remote_query [--records N] [--queries Q] [--lambda L] "
      "[--server-threads N] [--chaos-rate P] [--connections C] "
      "[--scans K] [--out BENCH_net.json]");
  int64_t records = args.get_int("records", 5000);
  int64_t n_queries = args.get_int("queries", 200);
  double lambda = args.get_double("lambda", 1000);
  auto server_threads =
      static_cast<unsigned>(args.get_int("server-threads", 2));
  double chaos_rate = args.get_double("chaos-rate", 0.01);
  int64_t n_connections = args.get_int("connections", 4);
  int64_t n_scans = args.get_int("scans", 20);
  std::string out_path = args.get_string("out", "BENCH_net.json");

  std::cout << "# remote query bench: records=" << records
            << " queries=" << n_queries << " lambda=" << lambda << "\n";

  // Server side: a scratch database behind a loopback TCP server.
  bench::ScratchDir dir("remote");
  sql::Database db(dir.str());
  net::ServerOptions server_options;
  server_options.worker_threads = server_threads;
  net::Server server(db, server_options);
  server.start();
  std::cout << "wre_server listening on 127.0.0.1:" << server.port() << "\n";

  // Client side: RemoteConnection transport under an EncryptedConnection.
  net::RemoteConnection remote("127.0.0.1", server.port());
  remote.ping();
  crypto::SecureRandom entropy;
  Bytes secret = entropy.bytes(32);
  core::EncryptedConnection conn(remote, secret);

  datagen::RecordGenerator gen;
  auto hist = bench::collect_histogram(gen, records);
  auto schema = datagen::RecordGenerator::schema();
  const auto& enc_cols = datagen::RecordGenerator::encrypted_columns();
  std::map<std::string, core::PlaintextDistribution> dists;
  std::vector<core::EncryptedColumnSpec> specs;
  for (const auto& col : enc_cols) {
    dists.emplace(col,
                  core::PlaintextDistribution::from_counts(hist.counts(col)));
    specs.push_back(
        core::EncryptedColumnSpec{col, core::SaltMethod::kPoisson, lambda});
  }
  conn.create_table("main", schema, specs, dists);

  // Remote bulk ingest: tags and ciphertext are computed client-side, then
  // cross the wire as kInsertBatch frames.
  std::vector<sql::Row> rows;
  rows.reserve(static_cast<size_t>(records));
  for (int64_t id = 0; id < records; ++id) rows.push_back(gen.record(id));
  Timer ingest;
  conn.insert_bulk("main", rows);
  double ingest_s = ingest.elapsed_seconds();
  std::cout << "remote ingest: " << std::fixed << std::setprecision(1)
            << static_cast<double>(records) / ingest_s << " rows/s\n";

  datagen::QueryGenerator qgen(hist,
                               datagen::RecordGenerator::encrypted_columns());
  auto queries = qgen.generate(static_cast<size_t>(n_queries));

  // Parity gate: an independent in-process client over the same database,
  // rebuilt purely from the encrypted manifest + the shared master secret.
  core::EncryptedConnection local(db, secret);
  local.open_table("main");
  size_t mismatches = 0;
  for (const auto& q : queries) {
    auto remote_ids = sorted(conn.select_ids("main", q.column, q.value).ids);
    auto local_ids = sorted(local.select_ids("main", q.column, q.value).ids);
    if (remote_ids != local_ids) ++mismatches;
  }
  if (mismatches != 0) {
    std::cout << "ERROR: " << mismatches << "/" << queries.size()
              << " queries returned different ids remotely vs in-process\n";
  } else {
    std::cout << "parity: remote ids identical to in-process for "
              << queries.size() << " queries\n";
  }

  // Latency/throughput passes (warm: the parity pass primed all caches).
  bench::JsonReport report(out_path);
  report.set_context("bench", "remote_query");
  report.set_context("transport", "tcp-loopback");
  auto run_pass = [&](const std::string& name, bool star) {
    std::vector<double> lat_ms;
    lat_ms.reserve(queries.size());
    Timer total;
    for (const auto& q : queries) {
      Timer t;
      if (star) {
        conn.select_star("main", q.column, q.value);
      } else {
        conn.select_ids("main", q.column, q.value);
      }
      lat_ms.push_back(t.elapsed_millis());
    }
    double qps = static_cast<double>(queries.size()) / total.elapsed_seconds();
    auto lat = bench::LatencySummary::of(std::move(lat_ms));
    std::cout << name << ": " << std::fixed << std::setprecision(1) << qps
              << " q/s, p50 " << std::setprecision(3) << lat.p50
              << " ms, p99 " << lat.p99 << " ms, p999 " << lat.p999
              << " ms\n";
    std::vector<std::pair<std::string, double>> metrics{
        {"queries_per_sec", qps}};
    lat.append_metrics("latency_ms_", &metrics);
    report.add(name, std::move(metrics));
  };
  run_pass("remote/select_id", /*star=*/false);
  run_pass("remote/select_star", /*star=*/true);

  report.add("remote/ingest",
             {{"rows_per_sec", static_cast<double>(records) / ingest_s},
              {"seconds", ingest_s},
              {"records", static_cast<double>(records)}});
  report.add("remote/parity",
             {{"queries", static_cast<double>(queries.size())},
              {"mismatches", static_cast<double>(mismatches)}});

  // ------------------------------------------------------------------
  // Columnar sweep: the same remote workload with the server's in-memory
  // column store enabled (DESIGN.md §5.9). The tag predicates keep their
  // index plan either way; what moves is the full-table SELECT *, which
  // the server now late-materializes straight from packed column
  // segments into the response frame. Row-path results are captured
  // before the flip and every columnar answer is compared against them —
  // the column store must be invisible in the results.
  // ------------------------------------------------------------------
  if (n_scans > 0) {
    std::vector<std::vector<int64_t>> row_ids;
    std::vector<std::vector<sql::Row>> row_stars;
    row_ids.reserve(queries.size());
    row_stars.reserve(queries.size());
    for (const auto& q : queries) {
      row_ids.push_back(sorted(conn.select_ids("main", q.column, q.value).ids));
      row_stars.push_back(conn.select_star("main", q.column, q.value).rows);
    }
    const std::string scan_sql = "SELECT * FROM main";
    sql::ResultSet scan_ref = remote.execute(scan_sql);

    auto scan_pass = [&](const std::string& name) {
      std::vector<double> lat_ms;
      lat_ms.reserve(static_cast<size_t>(n_scans));
      Timer total;
      for (int64_t i = 0; i < n_scans; ++i) {
        Timer t;
        remote.execute(scan_sql);
        lat_ms.push_back(t.elapsed_millis());
      }
      double qps = static_cast<double>(n_scans) / total.elapsed_seconds();
      auto lat = bench::LatencySummary::of(std::move(lat_ms));
      std::cout << name << ": " << std::fixed << std::setprecision(1) << qps
                << " scans/s (" << scan_ref.rows.size() << " rows), p50 "
                << std::setprecision(3) << lat.p50 << " ms, p99 " << lat.p99
                << " ms\n";
      std::vector<std::pair<std::string, double>> metrics{
          {"scans_per_sec", qps},
          {"rows", static_cast<double>(scan_ref.rows.size())}};
      lat.append_metrics("latency_ms_", &metrics);
      report.add(name, std::move(metrics));
      return qps;
    };
    remote.execute(scan_sql);  // warm
    double scan_qps_row = scan_pass("remote/scan_star");

    db.set_columnar_enabled(true);

    // Parity gate on the columnar path: ids, decrypted star rows, and the
    // full scan must all match the row-path captures exactly.
    size_t columnar_mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto& q = queries[i];
      if (sorted(conn.select_ids("main", q.column, q.value).ids) !=
          row_ids[i]) {
        ++columnar_mismatches;
      }
      if (conn.select_star("main", q.column, q.value).rows != row_stars[i]) {
        ++columnar_mismatches;
      }
    }
    sql::ResultSet scan_col = remote.execute(scan_sql);
    if (scan_col.columns != scan_ref.columns ||
        scan_col.rows != scan_ref.rows) {
      ++columnar_mismatches;
    }
    if (columnar_mismatches != 0) {
      mismatches += columnar_mismatches;
      std::cout << "ERROR: " << columnar_mismatches
                << " columnar results differ from the row path\n";
    } else {
      std::cout << "columnar parity: ids, star rows and full scan identical "
                   "to the row path\n";
    }

    double scan_qps_col = scan_pass("remote/scan_star_columnar");
    run_pass("remote/select_star_columnar", /*star=*/true);
    double speedup = scan_qps_row > 0 ? scan_qps_col / scan_qps_row : 0;
    std::cout << "remote/scan_star speedup: " << std::fixed
              << std::setprecision(2) << speedup << "x columnar over row\n";
    report.add("remote/columnar",
               {{"scan_speedup", speedup},
                {"parity_mismatches",
                 static_cast<double>(columnar_mismatches)}});

    // The pool and chaos passes below predate the column store;
    // keep them on the row path so their numbers stay comparable.
    db.set_columnar_enabled(false);
  }

  // ------------------------------------------------------------------
  // Connection-pool pass. The context block records the knobs so a
  // BENCH_net.json is self-describing when runs are compared.
  // ------------------------------------------------------------------
  report.set_context("server_workers", std::to_string(server_threads));
  report.set_context("client_connections", std::to_string(n_connections));

  // Raw multi-probe statements over the physical tag column — the shape
  // EncryptedConnection's rewriter emits, minus client crypto, so the pass
  // isolates the transport's contribution.
  std::vector<std::string> probe_sqls;
  if (n_connections > 1) {
    auto tag_rs = remote.execute("SELECT fname_tag FROM main");
    std::vector<uint64_t> live_tags;
    live_tags.reserve(tag_rs.rows.size());
    for (const auto& row : tag_rs.rows) live_tags.push_back(row[0].as_tag());
    const size_t kProbesPerQuery = 8;
    if (!live_tags.empty()) {
      for (int64_t q = 0; q < n_queries; ++q) {
        std::string sql = "SELECT id FROM main WHERE fname_tag IN (";
        for (size_t j = 0; j < kProbesPerQuery; ++j) {
          size_t at = (static_cast<size_t>(q) * kProbesPerQuery + j * 131) %
                      live_tags.size();
          if (j) sql += ", ";
          sql += std::to_string(static_cast<int64_t>(live_tags[at]));
        }
        sql += ")";
        probe_sqls.push_back(std::move(sql));
      }
    }
  }

  // The statements run one at a time on `remote`'s single connection, then
  // fanned over N client threads sharing one RemoteConnection, whose pool
  // grows to N channels. A fixed number of pairs alternate the two passes;
  // each pair's speedup is pooled over sequential q/s, reported as the
  // median and quartiles so one noisy pass cannot set the number. Every
  // pass must return the first sequential pass's row counts.
  if (!probe_sqls.empty()) {
    constexpr int kPairs = 5;
    net::RemoteConnection pooled("127.0.0.1", server.port());
    pooled.ping();
    remote.execute(probe_sqls[0]);  // warm
    pooled.execute(probe_sqls[0]);
    std::vector<size_t> want_rows;
    std::vector<double> seq_qps, pool_qps, speedups;
    auto check_rows = [&](const char* pass, const std::vector<size_t>& got) {
      if (want_rows.empty()) want_rows = got;
      if (got == want_rows) return;
      ++mismatches;
      std::cout << "ERROR: " << pass << " pass returned different row "
                << "counts than the first sequential pass\n";
    };
    for (int pair = 0; pair < kPairs; ++pair) {
      std::vector<size_t> rows_seq;
      Timer seq;
      for (const auto& s : probe_sqls) {
        rows_seq.push_back(remote.execute(s).rows.size());
      }
      seq_qps.push_back(static_cast<double>(probe_sqls.size()) /
                        seq.elapsed_seconds());
      check_rows("sequential", rows_seq);

      std::vector<size_t> rows_pool(probe_sqls.size());
      std::atomic<size_t> errors{0};
      Timer pool_timer;
      std::vector<std::thread> clients;
      for (int64_t w = 0; w < n_connections; ++w) {
        clients.emplace_back([&, w] {
          for (size_t i = static_cast<size_t>(w); i < probe_sqls.size();
               i += static_cast<size_t>(n_connections)) {
            try {
              rows_pool[i] = pooled.execute(probe_sqls[i]).rows.size();
            } catch (const std::exception&) {
              ++errors;
            }
          }
        });
      }
      for (auto& c : clients) c.join();
      pool_qps.push_back(static_cast<double>(probe_sqls.size()) /
                         pool_timer.elapsed_seconds());
      if (errors > 0) {
        ++mismatches;
        std::cout << "ERROR: " << errors
                  << " statements failed in the pooled-connections pass\n";
      }
      check_rows("pooled", rows_pool);
      speedups.push_back(pool_qps.back() / seq_qps.back());
    }
    std::sort(speedups.begin(), speedups.end());
    std::sort(seq_qps.begin(), seq_qps.end());
    std::sort(pool_qps.begin(), pool_qps.end());
    const double p25 = speedups[kPairs / 4];
    const double median = speedups[kPairs / 2];
    const double p75 = speedups[3 * kPairs / 4];
    std::cout << "remote/connections(n=" << n_connections << ", " << kPairs
              << " pairs): " << std::fixed << std::setprecision(1)
              << seq_qps[kPairs / 2] << " q/s sequential vs "
              << pool_qps[kPairs / 2] << " q/s pooled (median "
              << std::setprecision(2) << median << "x, quartiles " << p25
              << "-" << p75 << "x)\n";
    report.add("remote/connections",
               {{"connections", static_cast<double>(n_connections)},
                {"pairs", static_cast<double>(kPairs)},
                {"sequential_qps", seq_qps[kPairs / 2]},
                {"queries_per_sec", pool_qps[kPairs / 2]},
                {"speedup", median},
                {"speedup_p25", p25},
                {"speedup_p75", p75}});
  }

  // Chaos pass: same SELECT id workload with socket faults injected on both
  // sides of the loopback hop. The retry loop (idempotency keys + backoff)
  // must absorb the faults; what this measures is the latency/throughput
  // price of doing so.
  if (chaos_rate > 0) {
    net::RemoteStats before = remote.stats();
    net::NetFaultInjector::Config cfg;
    cfg.seed = 424242;
    cfg.rate = chaos_rate;
    cfg.reset = true;
    cfg.torn = true;
    net::NetFaultInjector::instance().arm(cfg);

    std::vector<double> lat_ms;
    lat_ms.reserve(queries.size());
    size_t failed = 0;
    Timer total;
    for (const auto& q : queries) {
      Timer t;
      try {
        conn.select_ids("main", q.column, q.value);
      } catch (const RetriesExhaustedError&) {
        ++failed;  // the loud failure mode: counted, never silent
      }
      lat_ms.push_back(t.elapsed_millis());
    }
    double seconds = total.elapsed_seconds();
    uint64_t faults = net::NetFaultInjector::instance().faults_injected();
    net::NetFaultInjector::instance().reset();

    net::RemoteStats after = remote.stats();
    double qps = static_cast<double>(queries.size()) / seconds;
    auto lat = bench::LatencySummary::of(std::move(lat_ms));
    std::cout << "remote/select_id_chaos(" << std::setprecision(3)
              << chaos_rate << "): " << std::fixed << std::setprecision(1)
              << qps << " q/s, p99 " << std::setprecision(3) << lat.p99
              << " ms, p999 " << lat.p999 << " ms, retries "
              << (after.retries - before.retries) << ", overloaded "
              << (after.overloaded - before.overloaded) << ", exhausted "
              << failed << ", faults " << faults << "\n";
    std::vector<std::pair<std::string, double>> metrics{
        {"fault_rate", chaos_rate}, {"queries_per_sec", qps}};
    lat.append_metrics("latency_ms_", &metrics);
    metrics.insert(
        metrics.end(),
        {{"retries", static_cast<double>(after.retries - before.retries)},
         {"overloaded",
          static_cast<double>(after.overloaded - before.overloaded)},
         {"exhausted", static_cast<double>(failed)},
         {"server_sessions_shed",
          static_cast<double>(server.sessions_shed())},
         {"server_dedup_hits", static_cast<double>(server.dedup_hits())}});
    report.add("remote/select_id_chaos", std::move(metrics));
  }
  report.write();

  server.stop();
  std::cout << "server drained: " << server.frames_served()
            << " frames over " << server.sessions_accepted() << " sessions\n";
  return mismatches == 0 ? 0 : 1;
}
