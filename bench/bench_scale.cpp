// Million-user multi-tenant scale harness: open-loop sustained load from
// thousands of simulated tenants against one wre_server over TCP.
//
// What this measures that the other harnesses cannot: the paper's
// deployment story at fleet shape. One server, one shared physical table,
// N tenants each holding keys derived from a single service master secret
// (crypto::TenantKeyring) — so tag namespaces are cryptographically
// disjoint while rows interleave. Load is OPEN-LOOP: each thread fixes a
// Poisson arrival schedule in advance (util::OpenLoopPacer) and measures
// every request from its *scheduled* arrival to completion, so stalls are
// charged with the queueing delay they actually caused (no coordinated
// omission). The workload mixes point lookups (70%), IN-scans over 3
// values (20%) and small bulk ingests (10%).
//
// The defaults are a minutes-scale smoke configuration. The paper-scale
// sweep is (see EXPERIMENTS.md "Scale"):
//
//   $ ./bench_scale --tenants 1000 --records 1000000 --rate 500
//       --duration-sec 12 --threads 8 --vocab 200  # committed BENCH_scale.json
//   $ ./bench_scale --tenants 10000 --records 10000000 ...  # full 10M sweep
//
// Flags: --tenants N --records N --rate ARRIVALS_PER_SEC --duration-sec S
//        --threads N --lambda L --vocab N --notes-bytes N
//        --out BENCH_scale.json (any other argument exits 2)
#include <atomic>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <thread>

#include "bench/bench_common.h"
#include "src/core/tenant.h"
#include "src/datagen/dataset_stream.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/util/open_loop.h"

namespace {

using namespace wre;
using Clock = std::chrono::steady_clock;

struct ScaleConfig {
  int64_t tenants = 100;
  int64_t records = 50000;
  double rate = 400;        // open-loop arrivals/sec across all threads
  double duration_sec = 5;  // measured window per pass
  unsigned threads = 8;
  double lambda = 40;
  size_t vocab = 120;
  size_t notes_bytes = 64;
  uint64_t seed = 0x5ca1e;
};

/// The shared-table config every tenant attaches to. Distributions come
/// from the vocabularies directly (exact, O(vocab)) — never from scanning
/// generated data, which would break the streaming property.
core::TenantTableConfig table_config(const datagen::RecordGenerator& gen,
                                     double lambda) {
  core::TenantTableConfig cfg;
  cfg.table = "main";
  cfg.logical = datagen::RecordGenerator::schema();
  auto add = [&](const std::string& col, const datagen::WeightedVocabulary& v) {
    cfg.distributions.emplace(col, core::PlaintextDistribution::from_probabilities(
                                       datagen::vocabulary_distribution(v)));
    cfg.specs.push_back(
        core::EncryptedColumnSpec{col, core::SaltMethod::kPoisson, lambda});
  };
  add("fname", gen.first_names());
  add("lname", gen.last_names());
  add("city", gen.cities());
  add("zip", gen.zips());
  // ssn is uniform high-entropy: fixed salts need no distribution.
  cfg.specs.push_back(
      core::EncryptedColumnSpec{"ssn", core::SaltMethod::kFixed, 64});
  return cfg;
}

/// One load thread's view: its own TCP connection and its own TenantPool
/// over the tenants t with t % threads == index.
struct Shard {
  std::unique_ptr<net::RemoteConnection> remote;
  std::unique_ptr<core::TenantPool> pool;
};

std::vector<Shard> make_shards(uint16_t port, unsigned threads,
                               ByteView master,
                               const core::TenantTableConfig& cfg) {
  std::vector<Shard> shards(threads);
  for (unsigned i = 0; i < threads; ++i) {
    auto remote = std::make_unique<net::RemoteConnection>("127.0.0.1", port);
    net::RemoteConnection* rc = remote.get();
    shards[i].remote = std::move(remote);
    shards[i].pool = std::make_unique<core::TenantPool>(
        *rc, master, cfg, [rc](uint64_t t) { rc->set_tenant_id(t); });
  }
  return shards;
}

struct OpLatencies {
  std::vector<double> point, in_scan, ingest;
};

struct PassResult {
  OpLatencies lat;
  uint64_t arrivals = 0;
  uint64_t late = 0;
  uint64_t errors = 0;
  double seconds = 0;
};

/// One open-loop measured pass over live shards. Poisson superposition:
/// each thread paces at rate/threads, together one Poisson stream at rate.
PassResult run_open_loop(const ScaleConfig& sc, std::vector<Shard>& shards,
                         const datagen::RecordGenerator& gen,
                         int64_t extra_id_base) {
  PassResult result;
  std::vector<PassResult> per_thread(shards.size());
  const auto start = Clock::now();
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(sc.duration_sec));

  std::vector<std::thread> workers;
  for (unsigned k = 0; k < shards.size(); ++k) {
    workers.emplace_back([&, k] {
      PassResult& out = per_thread[k];
      Shard& shard = shards[k];
      Xoshiro256 rng(sc.seed * 7919 + k);
      util::OpenLoopPacer pacer(sc.rate / static_cast<double>(shards.size()),
                                sc.seed * 31 + k, start);
      // Tenants this shard owns (k, k+threads, ...).
      std::vector<uint64_t> my_tenants;
      for (int64_t t = k; t < sc.tenants;
           t += static_cast<int64_t>(shards.size())) {
        my_tenants.push_back(static_cast<uint64_t>(t));
      }
      if (my_tenants.empty()) return;
      static const char* kColumns[4] = {"fname", "lname", "city", "zip"};
      const datagen::WeightedVocabulary* vocabs[4] = {
          &gen.first_names(), &gen.last_names(), &gen.cities(), &gen.zips()};
      int64_t next_extra =
          extra_id_base + static_cast<int64_t>(k) * 4'000'000;

      while (Clock::now() < end) {
        Clock::time_point scheduled = pacer.next_arrival();
        if (scheduled >= end) break;
        uint64_t tenant = my_tenants[rng.next_below(my_tenants.size())];
        core::EncryptedConnection& conn = shard.pool->connection(tenant);
        size_t c = static_cast<size_t>(rng.next_below(4));
        uint64_t op = rng.next_below(10);
        std::vector<double>* bucket = nullptr;
        try {
          if (op < 7) {
            bucket = &out.lat.point;
            conn.select_ids("main", kColumns[c], vocabs[c]->sample(rng));
          } else if (op < 9) {
            bucket = &out.lat.in_scan;
            std::vector<std::string> values;
            for (int i = 0; i < 3; ++i) values.push_back(vocabs[c]->sample(rng));
            conn.select_ids_in("main", kColumns[c], values);
          } else {
            bucket = &out.lat.ingest;
            std::vector<sql::Row> rows;
            rows.reserve(16);
            for (int i = 0; i < 16; ++i) rows.push_back(gen.record(next_extra++));
            core::IngestOptions opts;
            opts.threads = 1;
            conn.insert_bulk("main", rows, opts);
          }
          // Latency from the SCHEDULED arrival: queueing delay behind a
          // stall lands in every request it delayed.
          bucket->push_back(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        scheduled)
                  .count());
        } catch (const std::exception&) {
          ++out.errors;  // counted, never silently dropped
        }
      }
      out.arrivals = pacer.arrivals();
      out.late = pacer.late_arrivals();
    });
  }
  for (auto& w : workers) w.join();
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (PassResult& t : per_thread) {
    result.arrivals += t.arrivals;
    result.late += t.late;
    result.errors += t.errors;
    auto merge = [](std::vector<double>& into, std::vector<double>& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    merge(result.lat.point, t.lat.point);
    merge(result.lat.in_scan, t.lat.in_scan);
    merge(result.lat.ingest, t.lat.ingest);
  }
  return result;
}

void report_pass(bench::JsonReport& report, const std::string& name,
                 const ScaleConfig& sc, const PassResult& r,
                 const net::Server& server) {
  size_t completed =
      r.lat.point.size() + r.lat.in_scan.size() + r.lat.ingest.size();
  std::vector<double> all;
  all.reserve(completed);
  for (const auto* v : {&r.lat.point, &r.lat.in_scan, &r.lat.ingest}) {
    all.insert(all.end(), v->begin(), v->end());
  }
  auto overall = bench::LatencySummary::of(std::move(all));
  double achieved = r.seconds > 0
                        ? static_cast<double>(completed) / r.seconds
                        : 0;
  std::cout << name << ": offered " << std::fixed << std::setprecision(0)
            << sc.rate << "/s, achieved " << achieved << "/s, p50 "
            << std::setprecision(2) << overall.p50 << " ms, p99 "
            << overall.p99 << " ms, p999 " << overall.p999 << " ms, late "
            << r.late << ", errors " << r.errors << "\n";

  std::vector<std::pair<std::string, double>> metrics{
      {"offered_per_sec", sc.rate},
      {"achieved_per_sec", achieved},
      {"completed", static_cast<double>(completed)},
      {"late_arrivals", static_cast<double>(r.late)},
      {"errors", static_cast<double>(r.errors)},
      {"server_dedup_hits", static_cast<double>(server.dedup_hits())}};
  overall.append_metrics("latency_ms_", &metrics);
  report.add(name + "/all", std::move(metrics));

  auto add_op = [&](const std::string& op, const std::vector<double>& xs) {
    auto lat = bench::LatencySummary::of(xs);
    std::vector<std::pair<std::string, double>> m{
        {"completed", static_cast<double>(xs.size())}};
    lat.append_metrics("latency_ms_", &m);
    report.add(name + "/" + op, std::move(m));
  };
  add_op("point", r.lat.point);
  add_op("in_scan", r.lat.in_scan);
  add_op("ingest", r.lat.ingest);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.reject_unknown({"tenants", "records", "rate", "duration-sec", "threads",
                       "lambda", "vocab", "notes-bytes", "out"},
                      "bench_scale [--tenants N] [--records N] [--rate R] "
                      "[--duration-sec S] [--threads N] [--lambda L] "
                      "[--vocab N] [--notes-bytes N] [--out BENCH_scale.json]");
  ScaleConfig sc;
  sc.tenants = args.get_int("tenants", sc.tenants);
  sc.records = args.get_int("records", sc.records);
  sc.rate = args.get_double("rate", sc.rate);
  sc.duration_sec = args.get_double("duration-sec", sc.duration_sec);
  sc.threads = static_cast<unsigned>(args.get_int("threads", sc.threads));
  sc.lambda = args.get_double("lambda", sc.lambda);
  sc.vocab = static_cast<size_t>(args.get_int("vocab", 120));
  sc.notes_bytes =
      static_cast<size_t>(args.get_int("notes-bytes", sc.notes_bytes));
  const std::string out_path = args.get_string("out", "BENCH_scale.json");
  if (sc.tenants <= 0 || sc.records <= 0 || sc.threads == 0) {
    std::cerr << "error: --tenants, --records, --threads must be positive\n";
    return 2;
  }

  // Small vocabularies keep per-tenant client state bounded: with N
  // tenants each holding its own derived schemes, vocab size is the knob
  // that makes 1000+ tenants fit one load-generator process.
  datagen::GeneratorOptions gopts;
  gopts.seed = sc.seed;
  gopts.first_name_vocab = sc.vocab;
  gopts.last_name_vocab = sc.vocab * 2;
  gopts.city_vocab = sc.vocab;
  gopts.zip_vocab = sc.vocab + sc.vocab / 2;
  gopts.notes_bytes = sc.notes_bytes;
  datagen::RecordGenerator gen(gopts);
  core::TenantTableConfig cfg = table_config(gen, sc.lambda);

  crypto::SecureRandom entropy;
  Bytes master = entropy.bytes(32);

  bench::ScratchDir scratch("scale");
  sql::Database db(scratch.str());

  bench::JsonReport report(out_path);
  report.set_context("bench", "scale");
  report.set_context("tenants", std::to_string(sc.tenants));
  report.set_context("records", std::to_string(sc.records));
  report.set_context("rate_per_sec", std::to_string(sc.rate));
  report.set_context("threads", std::to_string(sc.threads));
  report.set_context("lambda", std::to_string(sc.lambda));
  report.set_context("duration_sec", std::to_string(sc.duration_sec));

  const int64_t per_tenant = std::max<int64_t>(1, sc.records / sc.tenants);
  const int64_t total_records = per_tenant * sc.tenants;

  // Ingest, then the measured open-loop pass.
  {
    net::ServerOptions so;
    so.port = 0;
    // One persistent connection per load thread; the pool must cover them
    // all or the surplus sessions starve (a worker is held per connection).
    so.worker_threads = sc.threads + 2;
    net::Server server(db, so);
    server.start();
    auto shards = make_shards(server.port(), sc.threads, master, cfg);
    // Tenant 0 creates the shared table before the threads race to attach.
    shards[0].pool->connection(0);

    Timer ingest_timer;
    std::vector<std::thread> loaders;
    for (unsigned k = 0; k < sc.threads; ++k) {
      loaders.emplace_back([&, k] {
        std::vector<sql::Row> chunk;
        for (int64_t t = k; t < sc.tenants;
             t += static_cast<int64_t>(sc.threads)) {
          // Tenant t's slice of the id space; per-tenant seed, so each
          // tenant is a distinct draw from the shared vocabulary shapes.
          datagen::DatasetStream stream(
              datagen::tenant_options(gopts, static_cast<uint64_t>(t)),
              (t + 1) * per_tenant, t * per_tenant,
              std::min<int64_t>(per_tenant, 4096));
          core::EncryptedConnection& conn =
              shards[k].pool->connection(static_cast<uint64_t>(t));
          core::IngestOptions opts;
          opts.threads = 1;
          while (stream.next_chunk(&chunk)) {
            conn.insert_bulk("main", chunk, opts);
          }
        }
      });
    }
    for (auto& w : loaders) w.join();
    const double ingest_seconds = ingest_timer.elapsed_seconds();

    uint64_t rows = shards[0].remote->row_count("main");
    if (static_cast<int64_t>(rows) != total_records) {
      std::cerr << "error: ingest gate failed — " << rows << " rows, want "
                << total_records << "\n";
      return 1;
    }
    double rows_per_sec =
        ingest_seconds > 0 ? static_cast<double>(total_records) / ingest_seconds
                           : 0;
    std::cout << "scale/ingest: " << total_records << " rows, "
              << sc.tenants << " tenants, " << std::fixed
              << std::setprecision(0) << rows_per_sec << " rows/s\n";
    report.add("scale/ingest",
               {{"rows_per_sec", rows_per_sec},
                {"seconds", ingest_seconds},
                {"records", static_cast<double>(total_records)},
                {"tenants", static_cast<double>(sc.tenants)}});

    PassResult r =
        run_open_loop(sc, shards, gen, /*extra_id_base=*/total_records);
    report_pass(report, "scale/open_loop", sc, r, server);
    server.stop();
  }

  report.write();
  return 0;
}
