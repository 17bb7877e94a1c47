// Bounded multi-tenant scale scenario — the bench_scale harness shrunk to a
// deterministic-enough size that it runs under TSan/ASan in CI (label:
// scale). This is where the race/lifetime coverage for the scale path
// lives: bench/ binaries are excluded from sanitized builds, so any
// TenantPool or OpenLoopPacer race has to show up here.
//
// Scale knobs (env, so sanitizer scripts can shrink or grow the run):
//   WRE_SCALE_TENANTS   (default 24)
//   WRE_SCALE_RECORDS   (default 1200)
//   WRE_SCALE_THREADS   (default 4)
//   WRE_SCALE_SECONDS   (default 2)
//   WRE_SCALE_RATE      (default 300)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "src/core/tenant.h"
#include "src/datagen/dataset_stream.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/util/open_loop.h"
#include "src/util/rng.h"

namespace wre {
namespace {

int64_t env_int(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoll(v) : fallback;
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           ("wre_scale_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(Scale, MultiTenantOpenLoop) {
  const int64_t tenants = env_int("WRE_SCALE_TENANTS", 24);
  const int64_t records = env_int("WRE_SCALE_RECORDS", 1200);
  const unsigned threads =
      static_cast<unsigned>(env_int("WRE_SCALE_THREADS", 4));
  const double seconds =
      static_cast<double>(env_int("WRE_SCALE_SECONDS", 2));
  const double rate = static_cast<double>(env_int("WRE_SCALE_RATE", 300));
  const int64_t per_tenant = std::max<int64_t>(1, records / tenants);

  datagen::GeneratorOptions gopts;
  gopts.seed = 77;
  gopts.first_name_vocab = 50;
  gopts.last_name_vocab = 80;
  gopts.city_vocab = 50;
  gopts.zip_vocab = 60;
  gopts.notes_bytes = 32;
  datagen::RecordGenerator gen(gopts);

  core::TenantTableConfig cfg;
  cfg.table = "main";
  cfg.logical = datagen::RecordGenerator::schema();
  auto add = [&](const std::string& col,
                 const datagen::WeightedVocabulary& vocab) {
    cfg.distributions.emplace(
        col, core::PlaintextDistribution::from_probabilities(
                 datagen::vocabulary_distribution(vocab)));
    cfg.specs.push_back(
        core::EncryptedColumnSpec{col, core::SaltMethod::kPoisson, 8});
  };
  add("fname", gen.first_names());
  add("lname", gen.last_names());
  add("city", gen.cities());
  add("zip", gen.zips());
  cfg.specs.push_back(
      core::EncryptedColumnSpec{"ssn", core::SaltMethod::kFixed, 8});

  TempDir dir("openloop");
  sql::Database db(dir.str());
  Bytes master(32, 0x42);

  net::ServerOptions options;
  options.worker_threads = threads;
  net::Server server(db, options);
  server.start();

  std::vector<std::unique_ptr<net::RemoteConnection>> remotes;
  std::vector<std::unique_ptr<core::TenantPool>> pools;
  for (unsigned k = 0; k < threads; ++k) {
    remotes.push_back(
        std::make_unique<net::RemoteConnection>("127.0.0.1", server.port()));
    net::RemoteConnection* rc = remotes.back().get();
    pools.push_back(std::make_unique<core::TenantPool>(
        *rc, master, cfg, [rc](uint64_t t) { rc->set_tenant_id(t); }));
  }
  pools[0]->connection(0);  // create the shared table before threads race

  // Streaming ingest: tenant t loads ids [t*per_tenant, (t+1)*per_tenant).
  std::vector<std::thread> loaders;
  for (unsigned k = 0; k < threads; ++k) {
    loaders.emplace_back([&, k] {
      std::vector<sql::Row> chunk;
      for (int64_t t = k; t < tenants; t += threads) {
        datagen::DatasetStream stream(
            datagen::tenant_options(gopts, static_cast<uint64_t>(t)),
            (t + 1) * per_tenant, t * per_tenant, 256);
        auto& conn = pools[k]->connection(static_cast<uint64_t>(t));
        core::IngestOptions iopts;
        iopts.threads = 1;
        while (stream.next_chunk(&chunk)) {
          conn.insert_bulk("main", chunk, iopts);
        }
      }
    });
  }
  for (auto& w : loaders) w.join();
  ASSERT_EQ(remotes[0]->row_count("main"),
            static_cast<uint64_t>(per_tenant * tenants));

  // Open-loop query storm: point lookups and IN-scans
  // from every tenant, latencies charged from scheduled arrival.
  const auto start = util::OpenLoopPacer::Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<
                  util::OpenLoopPacer::Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> workers;
  for (unsigned k = 0; k < threads; ++k) {
    workers.emplace_back([&, k] {
      Xoshiro256 rng(1000 + k);
      util::OpenLoopPacer pacer(rate / threads, 500 + k, start);
      const datagen::WeightedVocabulary* vocabs[4] = {
          &gen.first_names(), &gen.last_names(), &gen.cities(), &gen.zips()};
      static const char* kColumns[4] = {"fname", "lname", "city", "zip"};
      while (util::OpenLoopPacer::Clock::now() < deadline) {
        if (pacer.next_arrival() >= deadline) break;
        uint64_t t = k + threads * rng.next_below(
                             static_cast<uint64_t>(
                                 (tenants - static_cast<int64_t>(k) +
                                  threads - 1) /
                                 threads));
        if (static_cast<int64_t>(t) >= tenants) t = k;
        auto& conn = pools[k]->connection(t);
        size_t c = static_cast<size_t>(rng.next_below(4));
        try {
          if (rng.next_below(4) == 0) {
            conn.select_ids_in(
                "main", kColumns[c],
                {vocabs[c]->sample(rng), vocabs[c]->sample(rng)});
          } else {
            conn.select_ids("main", kColumns[c], vocabs[c]->sample(rng));
          }
          completed.fetch_add(1);
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  server.stop();

  EXPECT_GT(completed.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
}

TEST(Scale, OpenLoopPacerScheduleIsDeterministic) {
  // Two pacers with the same (rate, seed, start) produce the same schedule;
  // late arrivals are counted, never re-timed (coordinated omission guard).
  auto start = util::OpenLoopPacer::Clock::now();
  util::OpenLoopPacer a(1000, 42, start);
  util::OpenLoopPacer b(1000, 42, start);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.peek_schedule_only(), b.peek_schedule_only());
  }
  EXPECT_EQ(a.arrivals(), 100u);

  // A pacer whose schedule is entirely in the past reports every arrival
  // late and returns scheduled (not actual) times.
  util::OpenLoopPacer late(1e6, 7, start - std::chrono::seconds(5));
  auto first = late.next_arrival();
  EXPECT_LT(first, start);
  EXPECT_EQ(late.late_arrivals(), 1u);
}

}  // namespace
}  // namespace wre
