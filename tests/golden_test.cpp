// Golden-vector tests: pin every keyed derivation that reaches persistent
// storage. If any of these change, databases written by previous builds
// become unsearchable — a format break that must be deliberate (bump the
// derivation labels, e.g. "wre-key-derivation-v1" -> v2, and migrate).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/core/salts.h"
#include "src/crypto/keys.h"
#include "src/crypto/prf.h"
#include "src/crypto/prs.h"
#include "src/crypto/sha256.h"
#include "src/sql/database.h"
#include "tests/test_util.h"

namespace wre {
namespace {

crypto::KeyBundle golden_keys() {
  return crypto::KeyBundle::derive(Bytes(32, 0x42));
}

TEST(Golden, KeyBundleDerivation) {
  auto keys = golden_keys();
  EXPECT_EQ(to_hex(keys.payload_key),
            "ada40a813b73a2d1f291841580f41bd91d762a9a31fa691ed79ef707c2d8b7a2");
  EXPECT_EQ(to_hex(keys.tag_key),
            "9a9b20bdc36f2080d4357beb1ac7a215396ab580a4999605047a74e8b5506f21");
  EXPECT_EQ(to_hex(keys.shuffle_key),
            "7fc238c1c4d620f6933283b39a5f4f7e9f1740287839c24c5bb3349e365cfddc");
}

TEST(Golden, TagDerivations) {
  crypto::TagPrf prf(golden_keys().tag_key);
  EXPECT_EQ(prf.tag(7, to_bytes("alice")), 10795810256718709864ULL);
  EXPECT_EQ(prf.bucket_tag(7), 8275187307937391664ULL);
  EXPECT_EQ(prf.range_tag(7), 4246672761708013599ULL);
}

TEST(Golden, PoissonSaltLayout) {
  // The pseudorandom salt layout must be stable: search tags written under
  // an old build must stay reachable.
  auto dist = core::PlaintextDistribution::from_probabilities(
      {{"a", 0.5}, {"b", 0.5}});
  core::PoissonSaltAllocator alloc(dist, 10, golden_keys().shuffle_key);
  auto s = alloc.salts_for("a");
  ASSERT_EQ(s.salts.size(), 5u);
  EXPECT_NEAR(s.weights[0], 0.059020230113311277, 1e-15);
}

TEST(Golden, BucketizedLayout) {
  auto dist = core::PlaintextDistribution::from_probabilities(
      {{"a", 0.5}, {"b", 0.5}});
  core::BucketizedPoissonAllocator alloc(dist, 10, golden_keys().shuffle_key,
                                         to_bytes("ctx"));
  ASSERT_EQ(alloc.bucket_count(), 12u);
  EXPECT_NEAR(alloc.bucket_width(0), 0.0067661815982060182, 1e-15);
}

TEST(Golden, PseudoRandomShufflePermutation) {
  crypto::PseudoRandomShuffle prs(golden_keys().shuffle_key, to_bytes("ctx"));
  EXPECT_EQ(prs.permutation(8),
            (std::vector<size_t>{4, 5, 6, 0, 7, 3, 2, 1}));
}

// End-to-end rewrite snapshot: the exact `WHERE <col>_tag IN (...)` SQL each
// salt method emits for a fixed secret and distribution. This pins the full
// client pipeline — per-table key derivation, salt layout, tag PRF, and the
// IN-list ordering the rewriter produces — so a change to any of them (or to
// the tag cache in front of them) shows up as a diff here, not as silently
// unreachable rows in an existing database.
TEST(Golden, RewriteSelectSqlPerScheme) {
  using core::EncryptedColumnSpec;
  using core::SaltMethod;
  using sql::ValueType;
  wre::testing::TempDir dir("golden_rewrite");
  sql::Database db(dir.str());
  core::EncryptedConnection conn(db, Bytes(32, 0x42));

  sql::Schema schema({sql::Column{"id", ValueType::kInt64, true},
                      sql::Column{"name", ValueType::kText}});
  std::map<std::string, core::PlaintextDistribution> dists;
  dists.emplace("name", core::PlaintextDistribution::from_probabilities(
                            {{"a", 0.5}, {"b", 0.3}, {"c", 0.2}}));

  struct Case {
    SaltMethod method;
    double param;
    const char* table;
    const char* expected_ids;
  };
  const Case cases[] = {
      {SaltMethod::kDeterministic, 0, "det",
       "SELECT id FROM det WHERE name_tag IN (-9156791295657862633)"},
      {SaltMethod::kFixed, 3, "fixed",
       "SELECT id FROM fixed WHERE name_tag IN (-7771228759616087980, "
       "-7502808811393092612, -5219006709707121277)"},
      {SaltMethod::kProportional, 8, "prop",
       "SELECT id FROM prop WHERE name_tag IN (-8407996975896820941, "
       "-7648467024850612320, -2942226087745297077, -3767863325021056)"},
      {SaltMethod::kPoisson, 8, "poisson",
       "SELECT id FROM poisson WHERE name_tag IN (403427692260244646, "
       "2929349728771908421, 3085616558559896958, 5857787028225945054, "
       "-7722191679127353761, -4960886274851977751, -3761296989002391861, "
       "-3224398783151240524)"},
      {SaltMethod::kBucketizedPoisson, 8, "bucket",
       "SELECT id FROM bucket WHERE name_tag IN (7288838754885498471, "
       "-9222182742932684102, -2534173032511802391)"},
  };
  for (const Case& c : cases) {
    conn.create_table(c.table, schema, {{"name", c.method, c.param}}, dists);
    EXPECT_EQ(conn.rewrite_select(c.table, "name", "a", false), c.expected_ids)
        << c.table;
    // SELECT * uses the same tag expansion, so only the projection differs.
    std::string star(c.expected_ids);
    star.replace(star.find("SELECT id"), 9, "SELECT *");
    EXPECT_EQ(conn.rewrite_select(c.table, "name", "a", true), star)
        << c.table;
  }
}

// End-to-end ingest snapshot: SHA-256 over every physical row, in heap order,
// that a fixed-secret, fixed-nonce insert_bulk writes. Covers the client's
// whole physical layout — which cells stand for each logical column, the
// order each record draws salt choices and AES nonces, range tags, plaintext
// pass-through and NULLs — for one, two and three ingest threads.
TEST(Golden, IngestPhysicalRows) {
  using core::EncryptedColumnSpec;
  using core::SaltMethod;
  using sql::Value;
  using sql::ValueType;
  sql::Schema schema({sql::Column{"id", ValueType::kInt64, true},
                      sql::Column{"name", ValueType::kText},
                      sql::Column{"city", ValueType::kText},
                      sql::Column{"tier", ValueType::kText},
                      sql::Column{"age", ValueType::kInt64},
                      sql::Column{"note", ValueType::kText}});
  const std::vector<std::string> names{"ann", "bo", "cy", "di", "ed"};
  const std::vector<std::string> cities{"oslo", "rome", "lima"};
  const std::vector<std::string> tiers{"gold", "silver"};
  auto dist = [](const std::vector<std::string>& values) {
    std::unordered_map<std::string, uint64_t> counts;
    for (size_t i = 0; i < values.size(); ++i) counts[values[i]] = 2 * i + 1;
    return core::PlaintextDistribution::from_counts(counts);
  };
  std::map<std::string, core::PlaintextDistribution> dists;
  dists.emplace("name", dist(names));
  dists.emplace("city", dist(cities));
  const std::vector<EncryptedColumnSpec> specs{
      {"name", SaltMethod::kPoisson, 8},
      {"city", SaltMethod::kBucketizedPoisson, 4},
      {"tier", SaltMethod::kFixed, 3}};
  const std::vector<core::RangeColumnSpec> ranges{{"age", 0, 99, 10}};

  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    auto pick = [&](const std::vector<std::string>& v, int64_t k) {
      return i % 11 == k ? Value::null()
                         : Value::text(v[static_cast<size_t>(i) % v.size()]);
    };
    rows.push_back({Value::int64(i), pick(names, 3), pick(cities, 5),
                    pick(tiers, 7),
                    i % 13 == 4 ? Value::null() : Value::int64((i * 17) % 100),
                    i % 9 == 2 ? Value::null()
                               : Value::text("n" + std::to_string(i))});
  }

  for (unsigned threads : {1u, 2u, 3u}) {
    wre::testing::TempDir dir("golden_ingest");
    sql::Database db(dir.str());
    core::EncryptedConnection conn(db, Bytes(32, 0x42));
    conn.create_table("people", schema, specs, dists, ranges);
    core::IngestOptions options;
    options.threads = threads;
    options.batch_rows = 16;
    options.stream_nonce = Bytes(16, 0x5c);
    conn.insert_bulk("people", rows, options);

    crypto::Sha256 h;
    size_t stored = 0;
    db.table("people").scan([&](int64_t, const sql::Row& row) {
      Bytes encoded;
      for (const Value& v : row) v.wire_encode(encoded);
      h.update(encoded);
      ++stored;
    });
    EXPECT_EQ(stored, rows.size());
    auto digest = h.finish();
    EXPECT_EQ(to_hex(ByteView(digest.data(), digest.size())),
              "2dcf1dd4826adedbb724679fdbc36ae7e81ca8945f1555d7e4d81440ea56224a")
        << threads << " threads";
  }
}

}  // namespace
}  // namespace wre
