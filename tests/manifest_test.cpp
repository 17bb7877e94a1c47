#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>
#include <random>

#include "src/core/encrypted_client.h"
#include "src/core/manifest.h"
#include "src/sql/database.h"
#include "src/storage/fault_injector.h"
#include "tests/test_util.h"

namespace wre::core {
namespace {

using sql::Column;
using sql::Database;
using sql::Row;
using sql::Schema;
using sql::Value;
using sql::ValueType;
using wre::testing::TempDir;

Schema demo_schema() {
  return Schema({Column{"id", ValueType::kInt64, true},
                 Column{"city", ValueType::kText},
                 Column{"zip", ValueType::kText},
                 Column{"pop", ValueType::kInt64}});
}

TableManifest demo_manifest() {
  TableManifest m;
  m.logical_schema = demo_schema();
  m.specs = {EncryptedColumnSpec{"city", SaltMethod::kPoisson, 500},
             EncryptedColumnSpec{"zip", SaltMethod::kBucketizedPoisson, 250}};
  m.distributions.emplace(
      "city", PlaintextDistribution::from_probabilities(
                  {{"springfield", 0.5}, {"shelbyville", 0.5}}));
  m.distributions.emplace(
      "zip", PlaintextDistribution::from_probabilities(
                 {{"11111", 0.25}, {"22222", 0.75}}));
  return m;
}

TEST(Manifest, SerializationRoundTrip) {
  TableManifest m = demo_manifest();
  TableManifest back = deserialize_manifest(serialize_manifest(m));

  ASSERT_EQ(back.logical_schema.column_count(), 4u);
  EXPECT_EQ(back.logical_schema.column(1).name, "city");
  EXPECT_EQ(back.logical_schema.primary_key_index(), 0u);

  ASSERT_EQ(back.specs.size(), 2u);
  EXPECT_EQ(back.specs[0].column, "city");
  EXPECT_EQ(back.specs[0].method, SaltMethod::kPoisson);
  EXPECT_EQ(back.specs[0].parameter, 500);
  EXPECT_EQ(back.specs[1].method, SaltMethod::kBucketizedPoisson);

  ASSERT_EQ(back.distributions.size(), 2u);
  EXPECT_NEAR(back.distributions.at("zip").probability("22222"), 0.75, 1e-12);
}

TEST(Manifest, EmptySectionsRoundTrip) {
  TableManifest m;
  m.logical_schema = demo_schema();
  TableManifest back = deserialize_manifest(serialize_manifest(m));
  EXPECT_TRUE(back.specs.empty());
  EXPECT_TRUE(back.distributions.empty());
}

TEST(Manifest, RejectsCorruptInput) {
  Bytes good = serialize_manifest(demo_manifest());
  Bytes truncated(good.begin(), good.end() - 3);
  EXPECT_THROW(deserialize_manifest(truncated), WreError);
  Bytes extended = good;
  extended.push_back(0);
  EXPECT_THROW(deserialize_manifest(extended), WreError);
  Bytes bad_version = good;
  bad_version[0] = 99;
  EXPECT_THROW(deserialize_manifest(bad_version), WreError);
  EXPECT_THROW(deserialize_manifest(Bytes{}), WreError);
}

struct ManifestFixture {
  TempDir dir;
  Bytes master = Bytes(32, 0x51);

  void create_and_load() {
    Database db(dir.str());
    EncryptedConnection conn(db, master);
    TableManifest m = demo_manifest();
    conn.create_table("places", demo_schema(), m.specs, m.distributions);
    conn.insert("places", {Value::int64(1), Value::text("springfield"),
                           Value::text("11111"), Value::int64(30000)});
    conn.insert("places", {Value::int64(2), Value::text("shelbyville"),
                           Value::text("22222"), Value::int64(20000)});
    conn.insert("places", {Value::int64(3), Value::text("springfield"),
                           Value::text("22222"), Value::int64(12000)});
    db.checkpoint();
  }
};

// The manifest is AES-CTR without a MAC, so the server can flip any of its
// bytes. Every mutant must decode into a well-formed manifest or throw
// WreError: never another exception type, and never an allocation sized by
// an inflated count.
std::optional<TableManifest> decode_typed(const Bytes& blob) {
  try {
    return deserialize_manifest(blob);
  } catch (const WreError&) {
    return std::nullopt;
  }
}

TEST(ManifestMutation, MutatedManifestsDecodeOrFailTyped) {
  TableManifest m = demo_manifest();
  m.range_specs = {RangeColumnSpec("pop", 0, 1000, 4, {10, 100, 500, 1000})};
  const Bytes valid = serialize_manifest(m);
  ASSERT_TRUE(decode_typed(valid).has_value());

  size_t decoded = 0;
  size_t failed = 0;
  auto check = [&](const Bytes& mutant) {
    SCOPED_TRACE(to_hex(mutant));
    std::optional<TableManifest> back = decode_typed(mutant);
    if (!back) {
      ++failed;
      return;
    }
    ++decoded;
    for (const Column& col : back->logical_schema.columns()) {
      EXPECT_LE(static_cast<uint8_t>(col.type),
                static_cast<uint8_t>(ValueType::kBlob));
    }
    // Well formed: what decoded re-encodes and decodes to the same bytes.
    const Bytes again = serialize_manifest(*back);
    EXPECT_EQ(serialize_manifest(deserialize_manifest(again)), again);
  };

  // Structure-aware mutants: inflated counts and every type byte.
  auto with_u32 = [&](size_t at, uint32_t v) {
    Bytes mutant = valid;
    store_le32(mutant.data() + at, v);
    return mutant;
  };
  const size_t ncuts_at = valid.size() - 8 * m.range_specs[0].uppers.size() - 4;
  for (uint32_t count : {0xffffffffu, 1u << 27, 1u << 16}) {
    EXPECT_FALSE(decode_typed(with_u32(1, count))) << "ncols " << count;
    EXPECT_FALSE(decode_typed(with_u32(ncuts_at, count))) << "ncuts " << count;
  }
  // A probability the flipped bits turn into NaN passes `p <= 0` and the
  // sum check alike, so it must be rejected by name.
  Bytes quarter(8);
  store_le64(quarter.data(), std::bit_cast<uint64_t>(0.25));
  const auto prob_at = std::search(valid.begin(), valid.end(),
                                   quarter.begin(), quarter.end());
  ASSERT_NE(prob_at, valid.end());
  Bytes nan_prob = valid;
  store_le64(nan_prob.data() + (prob_at - valid.begin()),
             std::bit_cast<uint64_t>(std::nan("")));
  EXPECT_FALSE(decode_typed(nan_prob));

  size_t type_at = 1 + 4;
  for (const Column& col : m.logical_schema.columns()) {
    type_at += 4 + col.name.size();
    for (int type = 0; type < 256; ++type) {
      Bytes mutant = valid;
      mutant[type_at] = static_cast<uint8_t>(type);
      check(mutant);
    }
    type_at += 2;
  }

  // Seeded random mutants: bit flips, truncation, appended bytes.
  std::mt19937_64 rng(20190624);
  auto below = [&](size_t n) {
    return static_cast<size_t>(
        std::uniform_int_distribution<uint64_t>(0, n - 1)(rng));
  };
  for (int i = 0; i < 3000; ++i) {
    Bytes mutant = valid;
    switch (below(3)) {
      case 0:  // flip 1-4 bits
        for (size_t flips = 1 + below(4); flips > 0; --flips) {
          mutant[below(valid.size())] ^= static_cast<uint8_t>(1u << below(8));
        }
        break;
      case 1:  // truncate
        mutant.resize(below(valid.size()));
        break;
      default:  // append 1-16 bytes
        for (size_t n = 1 + below(16); n > 0; --n) {
          mutant.push_back(static_cast<uint8_t>(below(256)));
        }
    }
    check(mutant);
  }
  // Both outcomes occur, so the loop exercises both branches.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(failed, 100u);
}

TEST(Manifest, OpenTableWithWrongSecretFailsCleanly) {
  ManifestFixture f;
  f.create_and_load();

  Database db(f.dir.str());
  EncryptedConnection conn(db, Bytes(32, 0x52));
  EXPECT_THROW(conn.open_table("places"), WreError);
}

TEST(Manifest, OpenTableUnknownTableThrows) {
  ManifestFixture f;
  f.create_and_load();
  Database db(f.dir.str());
  EncryptedConnection conn(db, f.master);
  EXPECT_THROW(conn.open_table("ghost"), WreError);
}

TEST(Manifest, OpenTableWithoutManifestTableThrows) {
  TempDir dir;
  Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 1));
  EXPECT_THROW(conn.open_table("anything"), WreError);
}

// The server controls what a manifest scan returns: a row of the wrong width
// or cell types is a typed error, never an out-of-bounds read.
TEST(Manifest, OpenTableRejectsMalformedManifestRows) {
  {
    TempDir dir;
    Database db(dir.str());
    db.create_table("_wre_manifest",
                    Schema({Column{"id", ValueType::kInt64, true},
                            Column{"tname", ValueType::kText}}));
    db.table("_wre_manifest").insert({Value::int64(0), Value::text("t")});
    EncryptedConnection conn(db, Bytes(32, 1));
    EXPECT_THROW(conn.open_table("t"), WreError);
  }
  {
    TempDir dir;
    Database db(dir.str());
    db.create_table("_wre_manifest",
                    Schema({Column{"id", ValueType::kInt64, true},
                            Column{"tname", ValueType::kText},
                            Column{"gen", ValueType::kText},
                            Column{"seq", ValueType::kInt64},
                            Column{"nchunks", ValueType::kInt64},
                            Column{"data", ValueType::kBlob}}));
    db.table("_wre_manifest")
        .insert({Value::int64(0), Value::text("t"), Value::text("0"),
                 Value::int64(0), Value::int64(1), Value::blob(Bytes(4, 0))});
    EncryptedConnection conn(db, Bytes(32, 1));
    EXPECT_THROW(conn.open_table("t"), WreError);
  }
}

TEST(Manifest, SaveManifestUpdatesLatestVersion) {
  ManifestFixture f;
  f.create_and_load();

  Database db(f.dir.str());
  EncryptedConnection conn(db, f.master);
  conn.open_table("places");
  // Re-save (e.g. refreshed distribution estimate) and reopen: the newest
  // manifest row must win.
  conn.save_manifest("places");
  EncryptedConnection conn2(db, f.master);
  conn2.open_table("places");
  EXPECT_EQ(conn2.select_star("places", "city", "shelbyville").rows.size(),
            1u);
}

TEST(Manifest, ServerSeesOnlyOpaqueBlob) {
  ManifestFixture f;
  f.create_and_load();
  Database db(f.dir.str());
  auto rs = db.execute("SELECT * FROM _wre_manifest");
  ASSERT_GE(rs.rows.size(), 1u);
  // Concatenate every stored chunk; the serialized manifest contains values
  // like "springfield" and column names like "city" — the ciphertext must
  // not.
  std::string as_text;
  for (const auto& row : rs.rows) {
    const Bytes& chunk = row[5].as_blob();
    as_text.append(chunk.begin(), chunk.end());
  }
  EXPECT_EQ(as_text.find("springfield"), std::string::npos);
  EXPECT_EQ(as_text.find("city"), std::string::npos);
}

TEST(Manifest, HalfWrittenCheckpointFallsBackToWalReplay) {
  // A checkpoint that dies halfway: some committed pages reached the data
  // files, the heap writes were silently lost (a flush that never hit the
  // platter), and the machine "crashed" — modeled by snapshotting the
  // directory — before the WAL would have been truncated. Because
  // truncation only happens after flush + fsync succeed, the log still
  // holds every committed image, and the restart replays the missing ones:
  // the encrypted manifest stays decryptable and the table searchable.
  TempDir dir;
  TempDir snap_parent;
  Bytes master(32, 0x51);
  sql::DatabaseOptions opts;
  opts.durability = true;
  std::filesystem::path snapshot = snap_parent.path() / "db";
  {
    Database db(dir.str(), opts);
    EncryptedConnection conn(db, master);
    TableManifest m = demo_manifest();
    conn.create_table("places", demo_schema(), m.specs, m.distributions);
    conn.insert("places", {Value::int64(1), Value::text("springfield"),
                           Value::text("11111"), Value::int64(30000)});
    conn.insert("places", {Value::int64(2), Value::text("shelbyville"),
                           Value::text("22222"), Value::int64(20000)});
    conn.insert("places", {Value::int64(3), Value::text("springfield"),
                           Value::text("22222"), Value::int64(12000)});
    db.commit();

    storage::FaultInjector::instance().arm_page_write_drop(".tbl");
    db.buffer_pool().flush_all();  // the "half-written" checkpoint flush
    uint64_t dropped = storage::FaultInjector::instance().dropped_page_writes();
    storage::FaultInjector::instance().reset();
    ASSERT_GT(dropped, 0u);  // the fixture really did lose heap pages

    std::filesystem::create_directories(snapshot);
    std::filesystem::copy(dir.path(), snapshot,
                          std::filesystem::copy_options::recursive);
    // The live db's destructor re-checkpoints the original directory with
    // the injector disarmed; only the snapshot keeps the torn state.
  }

  Database db(snapshot.string());
  EXPECT_GT(db.recovery_stats().pages_replayed, 0u);
  EncryptedConnection conn(db, master);
  conn.open_table("places");
  auto result = conn.select_star("places", "city", "springfield");
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(conn.select_star("places", "zip", "22222").rows.size(), 2u);
}

}  // namespace
}  // namespace wre::core
