// Determinism suite for the parallel bulk-ingest pipeline.
//
// WRE's salt sets derive pseudorandomly from (key, m), and the pipeline
// draws each record's remaining randomness (salt choice, AES-CTR nonces)
// from a PRF stream keyed by (master secret, stream nonce, record index).
// Ingesting the same record set with a fixed stream nonce must therefore be
// *bit-identical* — tags, ciphertexts, manifest — no matter how many worker
// threads encrypt it, for every salt method.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/core/ingest_pipeline.h"
#include "src/crypto/aes_ctr.h"
#include "src/crypto/hkdf.h"
#include "src/sql/database.h"
#include "tests/test_util.h"

namespace wre::core {
namespace {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::Value;
using sql::ValueType;
using wre::testing::TempDir;

Bytes test_secret() {
  Bytes secret(32, 0);
  for (size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<uint8_t>(0xa0 + i);
  }
  return secret;
}

Bytes test_nonce() { return Bytes(16, 0x5c); }

Schema logical_schema() {
  return Schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText},
                 Column{"city", ValueType::kText},
                 Column{"age", ValueType::kInt64},
                 Column{"note", ValueType::kText}});
}

const std::vector<std::string>& names() {
  static const std::vector<std::string> v{"alice", "bob",   "carol", "dave",
                                          "erin",  "frank", "grace", "heidi"};
  return v;
}

const std::vector<std::string>& cities() {
  static const std::vector<std::string> v{"springfield", "fairview",
                                          "riverton", "salem"};
  return v;
}

PlaintextDistribution dist_over(const std::vector<std::string>& values) {
  std::unordered_map<std::string, uint64_t> counts;
  for (size_t i = 0; i < values.size(); ++i) {
    counts[values[i]] = 3 * i + 1;  // skewed, low-entropy
  }
  return PlaintextDistribution::from_counts(counts);
}

std::vector<Row> make_rows(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::int64(i),
                    Value::text(names()[static_cast<size_t>(i * 7) %
                                        names().size()]),
                    Value::text(cities()[static_cast<size_t>(i * 3) %
                                         cities().size()]),
                    Value::int64((i * 37) % 1000),
                    Value::text("note-" + std::to_string(i))});
  }
  return rows;
}

double parameter_for(SaltMethod method) {
  switch (method) {
    case SaltMethod::kDeterministic: return 0;
    case SaltMethod::kFixed: return 16;
    case SaltMethod::kProportional: return 64;
    case SaltMethod::kPoisson: return 50;
    case SaltMethod::kBucketizedPoisson: return 50;
  }
  return 0;
}

/// Decrypts the stored manifest blob exactly the way open_table does, so
/// runs can be compared on manifest *plaintext* (the stored blob carries a
/// fresh AES nonce per save and legitimately differs between runs).
Bytes manifest_plaintext(sql::Database& db, const std::string& table,
                         ByteView master_secret) {
  std::map<int64_t, Bytes> chunks;
  db.table("_wre_manifest").scan([&](int64_t, const Row& row) {
    if (row[1].as_text() != table) return;
    chunks[row[3].as_int64()] = row[5].as_blob();
  });
  Bytes blob;
  for (const auto& [seq, chunk] : chunks) append(blob, chunk);
  Bytes key = crypto::hkdf(to_bytes("wre-manifest-v1"), master_secret,
                           to_bytes("manifest-key"), 32);
  return crypto::AesCtr(key).decrypt(blob);
}

struct RunResult {
  std::vector<Row> physical_rows;                    // heap order
  std::multiset<uint64_t> name_tags;                 // tag column multiset
  std::multiset<uint64_t> city_tags;
  Bytes manifest_plain;
  std::map<std::string, std::vector<Row>> by_name;   // reopened + decrypted
};

RunResult run_ingest(SaltMethod method, unsigned threads,
                     const std::vector<Row>& rows) {
  TempDir dir("parallel_ingest");
  sql::Database db(dir.str());
  Bytes secret = test_secret();
  EncryptedConnection conn(db, secret);

  std::vector<EncryptedColumnSpec> specs{{"name", method,
                                          parameter_for(method)},
                                         {"city", method,
                                          parameter_for(method)}};
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("name", dist_over(names()));
  dists.emplace("city", dist_over(cities()));
  std::vector<RangeColumnSpec> ranges{RangeColumnSpec("age", 0, 1000, 16)};
  conn.create_table("t", logical_schema(), specs, dists, ranges);

  IngestOptions options;
  options.threads = threads;
  options.batch_rows = 7;  // ragged batches: last one is partial
  options.stream_nonce = test_nonce();
  IngestPipeline pipeline(conn, "t", options);
  IngestStats stats = pipeline.ingest(rows);
  EXPECT_EQ(stats.rows, rows.size());
  EXPECT_EQ(stats.threads, threads);

  RunResult result;
  const Schema& physical = db.table("t").schema();
  size_t name_tag = *physical.index_of("name_tag");
  size_t city_tag = *physical.index_of("city_tag");
  db.table("t").scan([&](int64_t, const Row& row) {
    result.physical_rows.push_back(row);
    result.name_tags.insert(row[name_tag].as_tag());
    result.city_tags.insert(row[city_tag].as_tag());
  });
  result.manifest_plain = manifest_plaintext(db, "t", secret);

  // Reopen through the manifest with a fresh connection and decrypt: the
  // payload side must round-trip regardless of ingest parallelism.
  EncryptedConnection reader(db, secret);
  reader.open_table("t");
  for (const std::string& name : names()) {
    auto selected = reader.select_star("t", "name", name);
    std::sort(selected.rows.begin(), selected.rows.end(),
              [](const Row& a, const Row& b) {
                return a[0].as_int64() < b[0].as_int64();
              });
    result.by_name[name] = std::move(selected.rows);
  }
  return result;
}

class ParallelIngestDeterminism
    : public ::testing::TestWithParam<SaltMethod> {};

TEST_P(ParallelIngestDeterminism, BitIdenticalAcrossThreadCounts) {
  const SaltMethod method = GetParam();
  const std::vector<Row> rows = make_rows(120);

  RunResult serial = run_ingest(method, 1, rows);
  ASSERT_EQ(serial.physical_rows.size(), rows.size());

  // Sanity on the serial run: decrypted rows match what was ingested.
  size_t matched = 0;
  for (const auto& [name, selected] : serial.by_name) {
    for (const Row& row : selected) {
      EXPECT_EQ(row[1].as_text(), name);
      ++matched;
    }
  }
  EXPECT_EQ(matched, rows.size());

  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunResult parallel = run_ingest(method, threads, rows);
    // Bit-identical physical table: tags AND ciphertexts, row for row.
    EXPECT_EQ(parallel.physical_rows, serial.physical_rows);
    // The ISSUE-level invariants, asserted explicitly: tag multisets,
    // decrypted plaintexts, manifest.
    EXPECT_EQ(parallel.name_tags, serial.name_tags);
    EXPECT_EQ(parallel.city_tags, serial.city_tags);
    EXPECT_EQ(parallel.by_name, serial.by_name);
    EXPECT_EQ(parallel.manifest_plain, serial.manifest_plain);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSaltMethods, ParallelIngestDeterminism,
    ::testing::Values(SaltMethod::kDeterministic, SaltMethod::kFixed,
                      SaltMethod::kProportional, SaltMethod::kPoisson,
                      SaltMethod::kBucketizedPoisson),
    [](const ::testing::TestParamInfo<SaltMethod>& info) {
      std::string name = salt_method_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Bulk ingest must be semantically interchangeable with row-at-a-time
// insert(): same decrypted contents, same query results, same drift
// accounting (tags themselves differ — serial insert draws salts from the
// connection's entropy stream, not the pipeline's per-record PRF stream).
TEST(ParallelIngest, MatchesSerialInsertSemantics) {
  const std::vector<Row> rows = make_rows(80);

  TempDir serial_dir("ingest_serial");
  TempDir bulk_dir("ingest_bulk");
  sql::Database serial_db(serial_dir.str());
  sql::Database bulk_db(bulk_dir.str());
  EncryptedConnection serial_conn(serial_db, test_secret());
  EncryptedConnection bulk_conn(bulk_db, test_secret());

  std::vector<EncryptedColumnSpec> specs{
      {"name", SaltMethod::kPoisson, 50}, {"city", SaltMethod::kPoisson, 50}};
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("name", dist_over(names()));
  dists.emplace("city", dist_over(cities()));
  std::vector<RangeColumnSpec> ranges{RangeColumnSpec("age", 0, 1000, 16)};
  serial_conn.create_table("t", logical_schema(), specs, dists, ranges);
  bulk_conn.create_table("t", logical_schema(), specs, dists, ranges);

  for (const Row& row : rows) serial_conn.insert("t", row);
  IngestOptions options;
  options.threads = 4;
  options.batch_rows = 16;
  bulk_conn.insert_bulk("t", rows, options);

  ASSERT_EQ(serial_db.table("t").row_count(), bulk_db.table("t").row_count());
  for (const std::string& name : names()) {
    auto a = serial_conn.select_star("t", "name", name);
    auto b = bulk_conn.select_star("t", "name", name);
    auto key = [](const Row& r) { return r[0].as_int64(); };
    std::sort(a.rows.begin(), a.rows.end(),
              [&](const Row& x, const Row& y) { return key(x) < key(y); });
    std::sort(b.rows.begin(), b.rows.end(),
              [&](const Row& x, const Row& y) { return key(x) < key(y); });
    EXPECT_EQ(a.rows, b.rows) << "name=" << name;
  }
  auto range_a = serial_conn.select_star_range("t", "age", 100, 400);
  auto range_b = bulk_conn.select_star_range("t", "age", 100, 400);
  EXPECT_EQ(range_a.rows.size(), range_b.rows.size());

  for (const char* col : {"name", "city"}) {
    auto da = serial_conn.column_drift("t", col);
    auto db = bulk_conn.column_drift("t", col);
    EXPECT_EQ(da.observed_rows, db.observed_rows);
    EXPECT_EQ(da.unseen_rows, db.unseen_rows);
    EXPECT_DOUBLE_EQ(da.tv_distance, db.tv_distance);
  }
}

// Record indices continue across ingest() calls on one pipeline, so chunked
// streaming with a fixed nonce equals one big ingest of the concatenation.
TEST(ParallelIngest, ChunkedStreamingMatchesOneShot) {
  const std::vector<Row> rows = make_rows(60);

  auto load = [&](const std::vector<size_t>& chunk_sizes) {
    TempDir dir("ingest_chunked");
    auto db = std::make_unique<sql::Database>(dir.str());
    EncryptedConnection conn(*db, test_secret());
    std::vector<EncryptedColumnSpec> specs{{"name", SaltMethod::kPoisson, 50},
                                           {"city", SaltMethod::kPoisson, 50}};
    std::map<std::string, PlaintextDistribution> dists;
    dists.emplace("name", dist_over(names()));
    dists.emplace("city", dist_over(cities()));
    conn.create_table("t", logical_schema(), specs, dists);

    IngestOptions options;
    options.threads = 2;
    options.batch_rows = 8;
    options.stream_nonce = test_nonce();
    IngestPipeline pipeline(conn, "t", options);
    size_t at = 0;
    for (size_t n : chunk_sizes) {
      std::vector<Row> chunk(rows.begin() + static_cast<ptrdiff_t>(at),
                             rows.begin() + static_cast<ptrdiff_t>(at + n));
      pipeline.ingest(chunk);
      at += n;
    }
    EXPECT_EQ(pipeline.next_index(), rows.size());

    std::vector<Row> physical;
    db->table("t").scan(
        [&](int64_t, const Row& row) { physical.push_back(row); });
    return physical;
  };

  auto one_shot = load({60});
  auto chunked = load({13, 1, 20, 26});
  EXPECT_EQ(one_shot, chunked);
}

// Unseen-value rejection surfaces from worker threads as the same WreError
// a serial insert throws, and batches before the failure are kept.
TEST(ParallelIngest, WorkerErrorsPropagate) {
  TempDir dir("ingest_error");
  sql::Database db(dir.str());
  EncryptedConnection conn(db, test_secret());
  std::vector<EncryptedColumnSpec> specs{{"name", SaltMethod::kPoisson, 50}};
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("name", dist_over(names()));
  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText}});
  conn.create_table("t", schema, specs, dists);

  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back({Value::int64(i), Value::text(names()[0])});
  }
  rows.push_back({Value::int64(1000), Value::text("mallory")});  // unseen

  IngestOptions options;
  options.threads = 4;
  options.batch_rows = 8;
  EXPECT_THROW(conn.insert_bulk("t", rows, options), WreError);
  // Full batches before the failing one were written; the failing batch and
  // later ones were discarded.
  EXPECT_EQ(db.table("t").row_count() % options.batch_rows, 0u);
  EXPECT_LE(db.table("t").row_count(), 40u);
}

// A batch that fails mid-stream: on the inline path and with workers alike,
// exactly the batches before it are written, later batches are discarded,
// the record index and drift advance only past written rows, and the next
// ingest() continues from there — byte for byte as if the failing call had
// held only the written rows.
TEST(ParallelIngest, MidStreamFailureKeepsOnlyEarlierBatches) {
  constexpr size_t kBatchRows = 8;
  constexpr size_t kFailingBatch = 2;  // of 5
  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back({Value::int64(i),
                    Value::text(names()[static_cast<size_t>(i) % 8])});
  }
  rows[kFailingBatch * kBatchRows + 3][1] = Value::text("mallory");  // unseen
  std::vector<Row> more;
  for (int64_t i = 100; i < 110; ++i) {
    more.push_back({Value::int64(i), Value::text(names()[1])});
  }
  const size_t kept = kFailingBatch * kBatchRows;

  auto physical_rows = [](sql::Database& db) {
    std::vector<Row> out;
    db.table("t").scan([&](int64_t, const Row& row) { out.push_back(row); });
    return out;
  };
  // One pipeline per run: `first` is ingested (and may fail), then `more`.
  auto run = [&](unsigned threads, const std::vector<Row>& first,
                 bool first_fails) {
    TempDir dir("ingest_midstream");
    auto db = std::make_unique<sql::Database>(dir.str());
    EncryptedConnection conn(*db, test_secret());
    std::map<std::string, PlaintextDistribution> dists;
    dists.emplace("name", dist_over(names()));
    conn.create_table("t", schema, {{"name", SaltMethod::kPoisson, 50}},
                      dists);
    IngestOptions options;
    options.threads = threads;
    options.batch_rows = kBatchRows;
    options.stream_nonce = test_nonce();
    IngestPipeline pipeline(conn, "t", options);
    if (first_fails) {
      EXPECT_THROW(pipeline.ingest(first), WreError);
    } else {
      pipeline.ingest(first);
    }
    EXPECT_EQ(db->table("t").row_count(), kept);
    EXPECT_EQ(pipeline.next_index(), kept);
    EXPECT_EQ(conn.column_drift("t", "name").observed_rows, kept);

    pipeline.ingest(more);
    EXPECT_EQ(db->table("t").row_count(), kept + more.size());
    EXPECT_EQ(pipeline.next_index(), kept + more.size());
    EXPECT_EQ(conn.column_drift("t", "name").observed_rows,
              kept + more.size());
    return physical_rows(*db);
  };

  const std::vector<Row> written(rows.begin(),
                                 rows.begin() + static_cast<ptrdiff_t>(kept));
  const std::vector<Row> expected = run(1, written, false);
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(run(threads, rows, true), expected);
  }
}

}  // namespace
}  // namespace wre::core
