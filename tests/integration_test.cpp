// End-to-end tests across the full stack: SPARTA-like data generation ->
// encrypted client -> SQL engine -> storage, checked against a plaintext
// database loaded with the same records.
#include <gtest/gtest.h>

#include <fstream>

#include "src/attack/frequency_attack.h"
#include "src/core/encrypted_client.h"
#include "src/datagen/query_generator.h"
#include "src/datagen/record_generator.h"
#include "src/sql/database.h"
#include "tests/test_util.h"

namespace wre {
namespace {

using core::EncryptedColumnSpec;
using core::EncryptedConnection;
using core::PlaintextDistribution;
using core::SaltMethod;
using datagen::ColumnHistogram;
using datagen::GeneratorOptions;
using datagen::QueryGenerator;
using datagen::RecordGenerator;
using sql::Database;
using sql::Row;
using sql::Value;
using wre::testing::TempDir;

constexpr int kRecords = 2000;

/// Builds plaintext and encrypted databases over the same generated
/// records and cross-checks query answers.
struct TwinDatabases {
  TempDir plain_dir, enc_dir;
  Database plain_db, enc_db;
  EncryptedConnection conn;
  RecordGenerator gen;
  ColumnHistogram hist;

  explicit TwinDatabases(SaltMethod method, double param)
      : plain_db(plain_dir.str()),
        enc_db(enc_dir.str()),
        conn(enc_db, Bytes(32, 0x77)),
        gen(small_options()) {
    auto schema = RecordGenerator::schema();

    // Pass 1: collect per-column histograms (the "data owner knows the
    // distribution" step).
    for (int64_t id = 0; id < kRecords; ++id) {
      Row row = gen.record(id);
      for (const auto& col : RecordGenerator::encrypted_columns()) {
        hist.add(col, row[*schema.index_of(col)].as_text());
      }
    }

    // Plaintext database with indexes on the searchable columns.
    plain_db.create_table("main", schema);
    for (const auto& col : RecordGenerator::encrypted_columns()) {
      plain_db.create_index("main", col);
    }

    // Encrypted database.
    std::map<std::string, PlaintextDistribution> dists;
    std::vector<EncryptedColumnSpec> specs;
    for (const auto& col : RecordGenerator::encrypted_columns()) {
      dists.emplace(col, PlaintextDistribution::from_counts(hist.counts(col)));
      specs.push_back(EncryptedColumnSpec{col, method, param});
    }
    conn.create_table("main", schema, specs, dists);

    for (int64_t id = 0; id < kRecords; ++id) {
      Row row = gen.record(id);
      plain_db.table("main").insert(row);
      conn.insert("main", row);
    }
  }

  static GeneratorOptions small_options() {
    GeneratorOptions opts;
    opts.notes_bytes = 30;
    opts.first_name_vocab = 150;
    opts.last_name_vocab = 200;
    opts.city_vocab = 120;
    opts.zip_vocab = 150;
    return opts;
  }
};

TEST(Integration, EncryptedDatabaseIsLargerButBounded) {
  TwinDatabases twin(SaltMethod::kPoisson, 300.0);
  twin.plain_db.checkpoint();
  twin.enc_db.checkpoint();
  uint64_t plain = twin.plain_db.data_size_bytes();
  uint64_t enc = twin.enc_db.data_size_bytes();
  EXPECT_GT(enc, plain);
  // The paper reports < 2x for full-size (~1.1 KB) records; with the tiny
  // test records the AES payload dominates, so allow up to 4x here.
  EXPECT_LT(enc, plain * 4);
}

TEST(Integration, SnapshotOfEncryptedFilesRevealsNoPlaintext) {
  TwinDatabases twin(SaltMethod::kPoisson, 300.0);
  twin.enc_db.checkpoint();
  // Read every byte of every file in the encrypted database directory and
  // look for any generated first name. Plaintext columns (e.g. state) do
  // appear; encrypted ones must not.
  std::string blob;
  for (const auto& entry :
       std::filesystem::directory_iterator(twin.enc_dir.path())) {
    std::ifstream in(entry.path(), std::ios::binary);
    blob.append(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(blob.empty());
  // Probe with SSNs: 9-digit strings unique to their (encrypted) column, so
  // a hit cannot be a substring collision with a legitimately-plaintext
  // column (first/last names appear inside the plaintext address column).
  auto schema = RecordGenerator::schema();
  size_t ssn_idx = *schema.index_of("ssn");
  for (int64_t id = 0; id < 50; ++id) {
    std::string ssn = twin.gen.record(id)[ssn_idx].as_text();
    EXPECT_EQ(blob.find(ssn), std::string::npos) << ssn;
  }
  // Positive control: the un-encrypted marital_status column's values are
  // stored in the clear, proving the scan can see plaintext when present.
  EXPECT_NE(blob.find("married"), std::string::npos);
}

TEST(Integration, FrequencyAttackAcrossSchemes) {
  // The headline security claim, end-to-end: run the rank-matching attack
  // against the actual encrypted databases and verify the recovery ordering
  // DET >> fixed > poisson.
  auto run = [](SaltMethod method, double param) {
    TwinDatabases twin(method, param);
    auto& table = twin.enc_db.table("main");
    attack::TagHistogram tags;
    std::vector<std::pair<crypto::Tag, std::string>> records;
    auto schema = RecordGenerator::schema();
    size_t fname_idx = *schema.index_of("fname");
    size_t tag_idx = *table.schema().index_of("fname_tag");
    int64_t id = 0;
    table.scan([&](int64_t, const Row& physical) {
      auto tag = physical[tag_idx].as_tag();
      ++tags[tag];
      records.emplace_back(tag, twin.gen.record(id)[fname_idx].as_text());
      ++id;
    });
    attack::AuxDistribution aux;
    for (const auto& [value, count] : twin.hist.counts("fname")) {
      aux[value] =
          static_cast<double>(count) / static_cast<double>(kRecords);
    }
    auto guess = attack::rank_matching_attack(tags, aux);
    return attack::score_assignment(guess, records).recovery_rate;
  };

  double det = run(SaltMethod::kDeterministic, 0);
  double fixed = run(SaltMethod::kFixed, 20);
  double poisson = run(SaltMethod::kPoisson, 1000);
  EXPECT_GT(det, 0.5);
  EXPECT_LT(fixed, det);
  EXPECT_LT(poisson, 0.1);
}

TEST(Integration, ColdQueriesReadMorePagesThanWarm) {
  TwinDatabases twin(SaltMethod::kPoisson, 300.0);
  auto q = QueryGenerator(twin.hist, {"lname"}).generate(1);
  ASSERT_FALSE(q.empty());

  // Warm: run once to populate, measure second run.
  (void)twin.conn.select_star("main", q[0].column, q[0].value);
  twin.enc_db.disk().reset_stats();
  (void)twin.conn.select_star("main", q[0].column, q[0].value);
  uint64_t warm_reads = twin.enc_db.disk().stats().page_reads;

  twin.enc_db.clear_cache();
  twin.enc_db.disk().reset_stats();
  (void)twin.conn.select_star("main", q[0].column, q[0].value);
  uint64_t cold_reads = twin.enc_db.disk().stats().page_reads;

  EXPECT_EQ(warm_reads, 0u);
  EXPECT_GT(cold_reads, 0u);
}

TEST(Integration, ReopenedEncryptedDatabaseStillAnswersQueries) {
  TempDir dir;
  Bytes master(32, 0x42);
  GeneratorOptions opts = TwinDatabases::small_options();
  RecordGenerator gen(opts);
  auto schema = RecordGenerator::schema();
  ColumnHistogram hist;
  for (int64_t id = 0; id < 300; ++id) {
    hist.add("city", gen.record(id)[*schema.index_of("city")].as_text());
  }
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("city", PlaintextDistribution::from_counts(hist.counts("city")));

  std::string probe_city =
      gen.record(0)[*schema.index_of("city")].as_text();
  std::vector<EncryptedColumnSpec> specs = {
      EncryptedColumnSpec{"city", SaltMethod::kPoisson, 200}};
  size_t expected = 0;

  {
    Database db(dir.str());
    EncryptedConnection conn(db, master);
    conn.create_table("main", schema, specs, dists);
    for (int64_t id = 0; id < 300; ++id) conn.insert("main", gen.record(id));
    expected = conn.select_star("main", "city", probe_city).rows.size();
    ASSERT_GT(expected, 0u);
    db.checkpoint();
  }

  // Reopen: a fresh connection re-derives the same keys and salt layouts
  // from the master secret and the re-supplied schema/specs/distribution,
  // so tags written before the restart remain searchable.
  Database db(dir.str());
  EncryptedConnection conn(db, master);
  conn.attach_table("main", schema, specs, dists);
  EXPECT_EQ(conn.select_star("main", "city", probe_city).rows.size(),
            expected);

  // A connection with the wrong master secret derives different tags and
  // finds nothing.
  EncryptedConnection wrong(db, Bytes(32, 0x43));
  wrong.attach_table("main", schema, specs, dists);
  EXPECT_TRUE(wrong.select_ids("main", "city", probe_city).ids.empty());
}

TEST(Integration, AttachTableRejectsUnknownOrMismatched) {
  TempDir dir;
  Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 1));
  auto schema = RecordGenerator::schema();
  EXPECT_THROW(conn.attach_table("ghost", schema, {}, {}), WreError);

  // Create with one spec, attach with a different encrypted-column set:
  // physical layouts disagree.
  std::map<std::string, PlaintextDistribution> dists;
  conn.create_table(
      "main", schema,
      {EncryptedColumnSpec{"city", SaltMethod::kFixed, 4}}, dists);
  EXPECT_THROW(
      conn.attach_table("main", schema,
                        {EncryptedColumnSpec{"city", SaltMethod::kFixed, 4},
                         EncryptedColumnSpec{"zip", SaltMethod::kFixed, 4}},
                        dists),
      WreError);
}

}  // namespace
}  // namespace wre
