#include <gtest/gtest.h>

#include "src/core/encrypted_client.h"
#include "src/core/range.h"
#include "src/util/rng.h"
#include "src/sql/database.h"
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

// --------------------------------------------------------- RangeBucketizer

TEST(RangeBucketizer, RejectsBadParameters) {
  EXPECT_THROW(RangeBucketizer(10, 5, 4), WreError);
  EXPECT_THROW(RangeBucketizer(0, 10, 0), WreError);
}

TEST(RangeBucketizer, BucketOfCoversDomainUniformly) {
  RangeBucketizer b(0, 99, 10);
  EXPECT_EQ(b.bucket_of(0), 0u);
  EXPECT_EQ(b.bucket_of(9), 0u);
  EXPECT_EQ(b.bucket_of(10), 1u);
  EXPECT_EQ(b.bucket_of(99), 9u);
}

TEST(RangeBucketizer, OutOfDomainThrows) {
  RangeBucketizer b(0, 99, 10);
  EXPECT_THROW(b.bucket_of(-1), WreError);
  EXPECT_THROW(b.bucket_of(100), WreError);
}

TEST(RangeBucketizer, NegativeDomains) {
  RangeBucketizer b(-50, 49, 10);
  EXPECT_EQ(b.bucket_of(-50), 0u);
  EXPECT_EQ(b.bucket_of(-41), 0u);
  EXPECT_EQ(b.bucket_of(-40), 1u);
  EXPECT_EQ(b.bucket_of(49), 9u);
}

TEST(RangeBucketizer, NonDivisibleDomainStillCovers) {
  RangeBucketizer b(0, 9, 4);  // width ceil(10/4)=3: buckets 0-2,3-5,6-8,9
  for (int64_t v = 0; v <= 9; ++v) {
    EXPECT_LT(b.bucket_of(v), 4u) << v;
  }
  EXPECT_EQ(b.bucket_of(9), 3u);
}

TEST(RangeBucketizer, MoreBucketsThanValuesClampsCleanly) {
  RangeBucketizer b(0, 3, 10);
  for (int64_t v = 0; v <= 3; ++v) EXPECT_EQ(b.bucket_of(v), static_cast<uint32_t>(v));
}

TEST(RangeBucketizer, BucketsForRangeClampsToDomain) {
  RangeBucketizer b(0, 99, 10);
  auto [lo, hi] = b.buckets_for_range(-100, 1000);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 9u);
  auto [l2, h2] = b.buckets_for_range(25, 47);
  EXPECT_EQ(l2, 2u);
  EXPECT_EQ(h2, 4u);
}

TEST(RangeBucketizer, EmptyOrDisjointRanges) {
  RangeBucketizer b(0, 99, 10);
  auto [lo, hi] = b.buckets_for_range(200, 300);
  EXPECT_GT(lo, hi);  // empty marker
  auto [l2, h2] = b.buckets_for_range(50, 40);
  EXPECT_GT(l2, h2);
}

TEST(RangeBucketizer, BucketBoundsPartitionTheDomain) {
  RangeBucketizer b(7, 120, 9);
  int64_t expected_next = 7;
  for (uint32_t i = 0; i < b.bucket_count(); ++i) {
    auto [lo, hi] = b.bucket_bounds(i);
    EXPECT_EQ(lo, expected_next);
    EXPECT_GE(hi, lo);
    expected_next = hi + 1;
  }
  EXPECT_EQ(expected_next, 121);
  EXPECT_THROW(b.bucket_bounds(9), WreError);
}

// ------------------------------------------------------ equi-depth variant

TEST(EquiDepth, ExplicitPartitionBasics) {
  RangeBucketizer b(0, {9, 19, 99});
  EXPECT_EQ(b.bucket_count(), 3u);
  EXPECT_EQ(b.domain_hi(), 99);
  EXPECT_EQ(b.bucket_of(0), 0u);
  EXPECT_EQ(b.bucket_of(9), 0u);
  EXPECT_EQ(b.bucket_of(10), 1u);
  EXPECT_EQ(b.bucket_of(19), 1u);
  EXPECT_EQ(b.bucket_of(20), 2u);
  EXPECT_EQ(b.bucket_of(99), 2u);
  EXPECT_EQ(b.bucket_bounds(0), (std::pair<int64_t, int64_t>{0, 9}));
  EXPECT_EQ(b.bucket_bounds(2), (std::pair<int64_t, int64_t>{20, 99}));
}

TEST(EquiDepth, RejectsBadCutPoints) {
  EXPECT_THROW(RangeBucketizer(0, std::vector<int64_t>{}), WreError);
  EXPECT_THROW(RangeBucketizer(0, {5, 5}), WreError);
  EXPECT_THROW(RangeBucketizer(0, {5, 3}), WreError);
  EXPECT_THROW(RangeBucketizer(10, {5}), WreError);
}

TEST(EquiDepth, BalancesSkewedData) {
  // 90% of the mass at small values, a long thin tail: fixed-width buckets
  // leave most buckets nearly empty while one holds 90%; equi-depth
  // equalizes populations.
  std::vector<int64_t> sample;
  for (int i = 0; i < 900; ++i) sample.push_back(i % 10);        // 0..9
  for (int i = 0; i < 100; ++i) sample.push_back(10 + i * 100);  // tail
  auto eq = RangeBucketizer::equi_depth(sample, 10);

  std::vector<uint64_t> pop(eq.bucket_count(), 0);
  for (int64_t v : sample) ++pop[eq.bucket_of(v)];
  uint64_t max_pop = *std::max_element(pop.begin(), pop.end());
  // No bucket should hold more than ~2x the fair share.
  EXPECT_LE(max_pop, 2 * sample.size() / eq.bucket_count());
}

TEST(EquiDepth, HeavyDuplicatesMergeBuckets) {
  // A value holding 3 quantiles of mass cannot be split; the partition
  // merges and ends up with fewer buckets.
  std::vector<int64_t> sample(1000, 42);
  sample.push_back(100);
  auto eq = RangeBucketizer::equi_depth(sample, 8);
  EXPECT_LT(eq.bucket_count(), 8u);
  EXPECT_EQ(eq.bucket_of(42), 0u);
}

TEST(EquiDepth, CoversEverySampleValue) {
  Xoshiro256 rng(44);
  std::vector<int64_t> sample;
  for (int i = 0; i < 5000; ++i) {
    sample.push_back(static_cast<int64_t>(rng.next_below(100000)) - 50000);
  }
  auto eq = RangeBucketizer::equi_depth(sample, 16);
  for (int64_t v : sample) {
    EXPECT_LT(eq.bucket_of(v), eq.bucket_count());
  }
}

TEST(EquiDepth, ClientUsesExplicitPartition) {
  TempDir dir;
  Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 0x64));
  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"v", ValueType::kInt64}});
  RangeColumnSpec spec;
  spec.column = "v";
  spec.domain_lo = 0;
  spec.uppers = {9, 99, 999};  // three uneven buckets
  conn.create_table("t", schema, {}, {}, {spec});
  for (int i = 0; i < 12; ++i) {
    conn.insert("t", {Value::int64(i), Value::int64(i * 90)});
  }
  auto result = conn.select_star_range("t", "v", 0, 9);
  ASSERT_EQ(result.rows.size(), 1u);  // only v=0
  EXPECT_EQ(result.rows[0][0].as_int64(), 0);

  // Manifest round-trip preserves the explicit partition.
  db.checkpoint();
  EncryptedConnection fresh(db, Bytes(32, 0x64));
  fresh.open_table("t");
  EXPECT_EQ(fresh.select_star_range("t", "v", 0, 9).rows.size(), 1u);
}

// ------------------------------------------------ client range integration

struct RangeFixture {
  TempDir dir;
  Database db;
  EncryptedConnection conn;

  RangeFixture() : db(dir.str()), conn(db, Bytes(32, 0x61)) {
    Schema schema({Column{"id", ValueType::kInt64, true},
                   Column{"name", ValueType::kText},
                   Column{"salary", ValueType::kInt64}});
    conn.create_table("staff", schema, /*specs=*/{}, /*distributions=*/{},
                      {RangeColumnSpec{"salary", 0, 200000, 20}});
    for (int i = 0; i < 200; ++i) {
      conn.insert("staff", {Value::int64(i),
                            Value::text("emp" + std::to_string(i)),
                            Value::int64(i * 1000)});
    }
  }
};

TEST(RangeColumn, PhysicalLayoutHasTagAndBlob) {
  RangeFixture f;
  const Schema& physical = f.db.table("staff").schema();
  EXPECT_TRUE(physical.index_of("salary_tag").has_value());
  EXPECT_TRUE(physical.index_of("salary_enc").has_value());
  EXPECT_FALSE(physical.index_of("salary").has_value());
  EXPECT_TRUE(f.db.table("staff").has_index("salary_tag"));
}

TEST(RangeColumn, EmptyRangeReturnsNothingWithoutServerRoundTrip) {
  RangeFixture f;
  auto result = f.conn.select_star_range("staff", "salary", 300000, 400000);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.tags_in_query, 0u);
}

TEST(RangeColumn, ServerNeverSeesSalaries) {
  RangeFixture f;
  auto rs = f.db.execute("SELECT * FROM staff LIMIT 5");
  const Schema& physical = f.db.table("staff").schema();
  size_t enc_idx = *physical.index_of("salary_enc");
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row[enc_idx].type(), ValueType::kBlob);
    EXPECT_EQ(row[enc_idx].as_blob().size(), 16u + 8u);  // nonce + le64
  }
}

TEST(RangeColumn, EqualValuesShareTagOnlyWithinBucket) {
  // Values in the same bucket share a tag; across buckets they differ.
  RangeFixture f;
  auto rs = f.db.execute("SELECT * FROM staff");
  const Schema& physical = f.db.table("staff").schema();
  size_t tag_idx = *physical.index_of("salary_tag");
  size_t id_idx = *physical.index_of("id");
  std::map<int64_t, uint64_t> tag_by_id;
  for (const auto& row : rs.rows) {
    tag_by_id[row[id_idx].as_int64()] = row[tag_idx].as_tag();
  }
  // Bucket width is ceil(200001/20) = 10001, so salaries 0..9000 (ids 0..9)
  // share bucket 0 and salary 11000 (id 11) lands in bucket 1.
  EXPECT_EQ(tag_by_id[0], tag_by_id[9]);
  EXPECT_NE(tag_by_id[9], tag_by_id[11]);
}

TEST(RangeColumn, NullRangeValuesPassThrough) {
  RangeFixture f;
  f.conn.insert("staff", {Value::int64(500), Value::text("ghost"),
                          Value::null()});
  auto result = f.conn.select_star_range("staff", "salary", 0, 200000);
  for (const auto& row : result.rows) {
    EXPECT_NE(row[0].as_int64(), 500);  // NULL never matches a range
  }
}

TEST(RangeColumn, MisconfigurationsRejected) {
  TempDir dir;
  Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 1));
  Schema schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText},
                 Column{"salary", ValueType::kInt64}});
  // Range spec on a TEXT column.
  EXPECT_THROW(conn.create_table("t1", schema, {}, {},
                                 {RangeColumnSpec{"name", 0, 10, 2}}),
               WreError);
  // Range spec on the primary key.
  EXPECT_THROW(conn.create_table("t2", schema, {}, {},
                                 {RangeColumnSpec{"id", 0, 10, 2}}),
               WreError);
  // Same column both equality- and range-encrypted.
  EXPECT_THROW(
      conn.create_table(
          "t3", schema,
          {EncryptedColumnSpec{"name", SaltMethod::kFixed, 4}}, {},
          {RangeColumnSpec{"name", 0, 10, 2}}),
      WreError);
  // Unknown column.
  EXPECT_THROW(conn.create_table("t4", schema, {}, {},
                                 {RangeColumnSpec{"ghost", 0, 10, 2}}),
               WreError);
  // Out-of-domain insert.
  conn.create_table("t5", schema, {}, {},
                    {RangeColumnSpec{"salary", 0, 1000, 4}});
  EXPECT_THROW(conn.insert("t5", {Value::int64(1), Value::text("x"),
                                  Value::int64(5000)}),
               WreError);
}

TEST(RangeColumn, ManifestRoundTripsRangeSpecs) {
  TempDir dir;
  Bytes master(32, 0x62);
  {
    Database db(dir.str());
    EncryptedConnection conn(db, master);
    Schema schema({Column{"id", ValueType::kInt64, true},
                   Column{"salary", ValueType::kInt64}});
    conn.create_table("pay", schema, {}, {},
                      {RangeColumnSpec{"salary", 0, 10000, 8}});
    for (int i = 0; i < 50; ++i) {
      conn.insert("pay", {Value::int64(i), Value::int64(i * 100)});
    }
    db.checkpoint();
  }
  Database db(dir.str());
  EncryptedConnection conn(db, master);
  conn.open_table("pay");
  auto result = conn.select_star_range("pay", "salary", 1000, 2000);
  EXPECT_EQ(result.rows.size(), 11u);
}

}  // namespace
}  // namespace wre::core
