// Unit tests for the in-memory columnar ciphertext store (DESIGN.md §5.9):
// column layouts and scan kernels, segment build/select/wire encoding,
// the ColumnStoreManager's snapshot and tail-chunk catch-up, and the
// planner integration including the wire-protocol path — every
// columnar answer checked against the row path it must be
// indistinguishable from.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/columnar/column.h"
#include "src/columnar/segment.h"
#include "src/columnar/store_manager.h"
#include "src/crypto/prf.h"
#include "src/net/wire.h"
#include "src/sql/database.h"
#include "src/sql/parser.h"
#include "tests/test_util.h"

namespace wre::columnar {
namespace {

using sql::Value;
using wre::testing::TempDir;

// ------------------------------------------------------------ Int64Column

TEST(Int64Column, DictionaryLayoutScansByCode) {
  Int64Column col;
  // 12 rows over 3 distinct values: dictionary clearly pays.
  for (int64_t v : {5, 7, 5, 9, 7, 5, 9, 9, 5, 7, 5, 9}) col.append(v);
  col.seal(/*dict_max=*/1 << 16);
  EXPECT_EQ(col.layout(), ColumnLayout::kDictionary);
  EXPECT_EQ(col.dictionary_size(), 3u);

  int64_t probes[] = {9, 42};
  Selection sel;
  col.scan_in(probes, 2, &sel);
  EXPECT_EQ(sel, (Selection{3, 6, 7, 11}));
  EXPECT_TRUE(col.matches(3, probes, 2));
  EXPECT_FALSE(col.matches(0, probes, 2));
  EXPECT_EQ(col.at(1), 7);
}

TEST(Int64Column, PlainFallbackWhenDictionaryCannotPay) {
  // 8 distinct over 10 rows: under dict_max but compression would not pay
  // (each value must repeat twice on average), so the column stays plain.
  Int64Column col;
  for (int64_t v : {1, 2, 3, 4, 5, 6, 7, 8, 1, 2}) col.append(v);
  col.seal(/*dict_max=*/1 << 16);
  EXPECT_EQ(col.layout(), ColumnLayout::kPlain);

  int64_t probes[] = {2};
  Selection sel;
  col.scan_in(probes, 1, &sel);
  EXPECT_EQ(sel, (Selection{1, 9}));
}

TEST(Int64Column, PlainFallbackAboveDictMax) {
  Int64Column col;
  for (int64_t v : {1, 1, 1, 2, 2, 2, 3, 3, 3}) col.append(v);
  col.seal(/*dict_max=*/2);  // 3 distinct > cap
  EXPECT_EQ(col.layout(), ColumnLayout::kPlain);
  int64_t probes[] = {3, 1};
  Selection sel;
  col.scan_in(probes, 2, &sel);
  EXPECT_EQ(sel, (Selection{0, 1, 2, 6, 7, 8}));
}

TEST(Int64Column, NullsNeverMatchInEitherLayout) {
  for (size_t dict_max : {size_t{1} << 16, size_t{0}}) {
    Int64Column col;
    col.append(4);
    col.append_null();
    col.append(4);
    col.append(4);
    col.append_null();
    col.append(4);
    col.seal(dict_max);
    EXPECT_TRUE(col.has_nulls());
    EXPECT_TRUE(col.is_null(1));
    EXPECT_FALSE(col.is_null(2));
    int64_t probes[] = {4, 0};  // 0 is the internal NULL placeholder value
    Selection sel;
    col.scan_in(probes, 2, &sel);
    EXPECT_EQ(sel, (Selection{0, 2, 3, 5})) << "dict_max=" << dict_max;
    EXPECT_FALSE(col.matches(1, probes, 2));
  }
}

TEST(Int64Column, LargeProbeSetUsesBitmapPath) {
  Int64Column col;
  for (int64_t i = 0; i < 200; ++i) col.append(i % 20);
  col.seal(1 << 16);
  ASSERT_EQ(col.layout(), ColumnLayout::kDictionary);
  // 8 probes (> the 4-wide OR-tree) forces the bitmap kernel.
  std::vector<int64_t> probes = {0, 3, 5, 7, 11, 13, 17, 19};
  Selection sel;
  col.scan_in(probes.data(), probes.size(), &sel);
  Selection expect;
  for (uint32_t i = 0; i < 200; ++i) {
    int64_t v = i % 20;
    if (std::find(probes.begin(), probes.end(), v) != probes.end()) {
      expect.push_back(i);
    }
  }
  EXPECT_EQ(sel, expect);
}

TEST(Int64Column, WreTagProbes) {
  // Search tags are 64-bit PRF outputs bitcast through Value::tag; the
  // column must round-trip them and scan on the same bitcast probes.
  crypto::TagPrf prf(Bytes(32, 0x5a));
  std::vector<uint64_t> tags;
  for (int i = 0; i < 6; ++i) {
    tags.push_back(prf.tag(0, to_bytes("value" + std::to_string(i % 2))));
  }
  Int64Column col;
  for (uint64_t t : tags) col.append(Value::tag(t).as_int64());
  col.seal(1 << 16);
  int64_t probe = Value::tag(tags[0]).as_int64();
  Selection sel;
  col.scan_in(&probe, 1, &sel);
  EXPECT_EQ(sel, (Selection{0, 2, 4}));
}

// ------------------------------------------------------------ BytesColumn

TEST(BytesColumn, DictionaryAndPlainScansAgree) {
  std::vector<std::string> values = {"rome", "oslo", "rome", "kiev",
                                     "oslo", "rome", "kiev", "rome"};
  for (size_t dict_max : {size_t{1} << 16, size_t{0}}) {
    BytesColumn col(sql::ValueType::kText);
    for (const auto& v : values) col.append(v);
    col.append_null();
    col.seal(dict_max);
    EXPECT_EQ(col.layout(), dict_max ? ColumnLayout::kDictionary
                                     : ColumnLayout::kPlain);
    std::string_view probes[] = {"rome", "kiev", "paris"};
    Selection sel;
    col.scan_in(probes, 3, &sel);
    EXPECT_EQ(sel, (Selection{0, 2, 3, 5, 6, 7})) << "dict_max=" << dict_max;
    EXPECT_TRUE(col.is_null(8));
    EXPECT_FALSE(col.matches(8, probes, 3));
    EXPECT_EQ(col.at(1), "oslo");
  }
}

TEST(BytesColumn, UniqueCiphertextsStayPlain) {
  // Unique-ish values (every AES-CTR ciphertext is distinct) must keep the
  // packed heap-ordered layout even under a generous dictionary cap.
  BytesColumn col(sql::ValueType::kBlob);
  for (int i = 0; i < 64; ++i) {
    col.append(std::string(33, static_cast<char>(i)));
  }
  col.seal(1 << 16);
  EXPECT_EQ(col.layout(), ColumnLayout::kPlain);
  std::string probe(33, static_cast<char>(7));
  std::string_view pv = probe;
  Selection sel;
  col.scan_in(&pv, 1, &sel);
  EXPECT_EQ(sel, (Selection{7}));
}

TEST(BytesColumn, EmptyStringIsAValueNotNull) {
  BytesColumn col(sql::ValueType::kText);
  col.append("");
  col.append_null();
  col.append("");
  col.append("x");
  col.seal(1 << 16);
  std::string_view probe = "";
  Selection sel;
  col.scan_in(&probe, 1, &sel);
  EXPECT_EQ(sel, (Selection{0, 2}));
}

// ------------------------------------------------------------ TableSegment

sql::Expr where_of(const std::string& select_sql) {
  auto stmt = std::get<sql::SelectStmt>(sql::parse_statement(select_sql));
  return *stmt.where;
}

/// What a segment hands the executor for `sel`: its rows' wire bytes.
Bytes segment_rows(const TableSegment& seg, const Selection& sel,
                   const std::vector<size_t>& projection) {
  Bytes out;
  seg.wire_encode_rows(sel, projection, &out);
  return out;
}

/// The row path's reference: the same rows' wire bytes, Value by Value.
Bytes wire_rows(const std::vector<sql::Row>& rows) {
  net::WireWriter w;
  for (const sql::Row& row : rows) w.row(row);
  return w.bytes();
}

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest() : dir_("wre_columnar"), db_(dir_.str()) {
    db_.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, city TEXT, zip INTEGER, "
        "payload BLOB)");
    const char* cities[] = {"rome", "oslo", "kiev"};
    for (int i = 0; i < 30; ++i) {
      sql::Row row{Value::int64(i), Value::text(cities[i % 3]),
                   i % 5 == 0 ? Value::null() : Value::int64(10000 + i % 4),
                   Value::blob(Bytes(20, static_cast<uint8_t>(i)))};
      db_.insert_batch("t", {row});
    }
  }

  std::shared_ptr<const TableSegment> build() {
    const sql::Table& t = db_.table("t");
    return TableSegment::build(t);
  }

  TempDir dir_;
  sql::Database db_;
};

TEST_F(SegmentTest, SelectMatchesRowPathForEveryQueryShape) {
  auto seg = build();
  ASSERT_EQ(seg->row_count(), 30u);
  const char* shapes[] = {
      "SELECT * FROM t WHERE city = 'rome'",
      "SELECT * FROM t WHERE zip IN (10001, 10003)",
      "SELECT * FROM t WHERE city = 'oslo' AND zip = 10001",
      "SELECT * FROM t WHERE city = 'kiev' OR zip = 10002",
      "SELECT * FROM t WHERE city = 'nowhere'",
  };
  for (const char* sql : shapes) {
    sql::Expr e = where_of(sql);
    Selection sel = seg->select(e);
    // Reference: evaluate the same predicate row-by-row on the heap.
    sql::ResultSet rs = db_.execute(sql);
    ASSERT_EQ(sel.size(), rs.rows.size()) << sql;
    EXPECT_EQ(segment_rows(*seg, sel, {0, 1, 2, 3}), wire_rows(rs.rows))
        << sql;
    for (size_t i = 0; i < sel.size(); ++i) {
      EXPECT_TRUE(seg->row_matches(e, sel[i])) << sql;
    }
  }
}

TEST_F(SegmentTest, CrossTypeProbesNeverMatch) {
  auto seg = build();
  // A text probe against the INTEGER zip column: sql_equals semantics say
  // no row matches, and the kernel must agree rather than coerce.
  Selection sel = seg->select(sql::Expr::equals("zip", Value::text("10001")));
  EXPECT_TRUE(sel.empty());
  sel = seg->select(sql::Expr::equals("city", Value::int64(0)));
  EXPECT_TRUE(sel.empty());
  sel = seg->select(sql::Expr::equals("city", Value::null()));
  EXPECT_TRUE(sel.empty());
}

TEST_F(SegmentTest, WireEncodeRowsIsByteIdenticalToValueEncoding) {
  auto seg = build();
  // Every row in heap order, against the heap's rows (the column store is
  // off in this database).
  std::vector<sql::Row> heap;
  db_.table("t").scan(
      [&](int64_t, const sql::Row& row) { heap.push_back(row); });
  EXPECT_EQ(segment_rows(*seg, seg->select_all(), {0, 1, 2, 3}),
            wire_rows(heap));
  // A reordered projection of a filtered selection, against the row
  // path's answer to the same query.
  const std::string sql =
      "SELECT city, payload, zip FROM t WHERE city = 'rome'";
  Selection sel = seg->select(where_of(sql));
  EXPECT_EQ(segment_rows(*seg, sel, {1, 3, 2}),
            wire_rows(db_.execute(sql).rows));
}

TEST_F(SegmentTest, PkLookup) {
  auto seg = build();
  for (int64_t pk : {0, 7, 29}) {
    auto row = seg->row_of_pk(pk);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(seg->pk_at(*row), pk);
  }
  EXPECT_FALSE(seg->row_of_pk(1234).has_value());
}

TEST_F(SegmentTest, EmptyTableSegment) {
  db_.execute("CREATE TABLE empty (id INTEGER PRIMARY KEY, v TEXT)");
  const sql::Table& t = db_.table("empty");
  auto seg = TableSegment::build(t);
  EXPECT_EQ(seg->row_count(), 0u);
  EXPECT_TRUE(seg->select_all().empty());
  EXPECT_TRUE(seg->select(sql::Expr::equals("v", Value::text("x"))).empty());
}

// ----------------------------------------------------- ColumnStoreManager

TEST(ColumnStoreManager, SnapshotAppendsTailAfterInsert) {
  TempDir dir("wre_colmgr");
  sql::Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  db.insert_batch("t", {{Value::int64(1), Value::int64(10)},
                        {Value::int64(2), Value::int64(20)}});

  ColumnStoreManager mgr;
  auto s1 = mgr.snapshot(db.table("t"));
  auto s2 = mgr.snapshot(db.table("t"));
  EXPECT_EQ(s1.get(), s2.get());
  auto st = mgr.stats();
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.segments, 1u);
  EXPECT_GT(st.bytes, 0u);

  // One row after two: a tail chunk smaller than the base stays separate.
  db.insert_batch("t", {{Value::int64(3), Value::int64(30)}});
  auto s3 = mgr.snapshot(db.table("t"));
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_EQ(s3->row_count(), 3u);
  EXPECT_EQ(s3->chunk_count(), 2u);
  EXPECT_EQ(segment_rows(*s3, {2}, {0, 1}),
            wire_rows(db.execute("SELECT * FROM t WHERE id = 3").rows));
  EXPECT_EQ(s3->row_of_pk(3), std::optional<uint32_t>(2));
  // The old snapshot is still readable: in-flight scans drain on it.
  EXPECT_EQ(s1->row_count(), 2u);
  EXPECT_EQ(s1->select_all(), (Selection{0, 1}));
  EXPECT_EQ(segment_rows(*s1, {1}, {0, 1}),
            wire_rows(db.execute("SELECT * FROM t WHERE id = 2").rows));
  EXPECT_FALSE(s1->row_of_pk(3).has_value());
  st = mgr.stats();
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.rebuilds, 0u);
  EXPECT_EQ(st.appends, 1u);
  EXPECT_EQ(st.merges, 0u);

  // Two more rows: the tails merge, then grow to the base's size and fold
  // into it — from column data, leaving s3 untouched.
  db.insert_batch("t", {{Value::int64(4), Value::int64(40)},
                        {Value::int64(5), Value::int64(50)}});
  auto s4 = mgr.snapshot(db.table("t"));
  EXPECT_EQ(s4->row_count(), 5u);
  EXPECT_EQ(s4->chunk_count(), 1u);
  EXPECT_EQ(s4->select(sql::Expr::equals("v", Value::int64(30))),
            (Selection{2}));
  EXPECT_EQ(s3->chunk_count(), 2u);
  st = mgr.stats();
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.appends, 2u);
  EXPECT_EQ(st.merges, 2u);

  mgr.drop_all();
  EXPECT_EQ(mgr.stats().segments, 0u);
}

// --------------------------------------------------- Database integration

/// Database::execute_select_wire over the text of a SELECT.
void select_wire(sql::Database& db, const std::string& sql, Bytes* out) {
  db.execute_select_wire(std::get<sql::SelectStmt>(sql::parse_statement(sql)),
                         out);
}

class ColumnarDbTest : public ::testing::Test {
 protected:
  ColumnarDbTest() : dir_("wre_coldb") {
    sql::DatabaseOptions opt;
    opt.columnar = true;
    db_ = std::make_unique<sql::Database>(dir_.str(), opt);
    db_->execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, city TEXT, zip INTEGER)");
    const char* cities[] = {"rome", "oslo", "kiev", "lima"};
    std::vector<sql::Row> rows;
    for (int i = 0; i < 40; ++i) {
      rows.push_back({Value::int64(i), Value::text(cities[i % 4]),
                      Value::int64(10000 + i % 3)});
    }
    db_->insert_batch("t", rows);
  }

  // Runs `sql` on both paths and requires identical results (and that the
  // columnar path actually engaged when `expect_columnar`).
  void check_both_paths(const std::string& sql, bool expect_columnar = true) {
    db_->set_columnar_enabled(false);
    sql::ResultSet row = db_->execute(sql);
    db_->set_columnar_enabled(true);
    sql::ResultSet col = db_->execute(sql);
    EXPECT_EQ(col.used_columnar, expect_columnar) << sql;
    EXPECT_EQ(row.columns, col.columns) << sql;
    EXPECT_EQ(row.rows, col.rows) << sql;
    EXPECT_EQ(row.rows_affected, col.rows_affected) << sql;
  }

  TempDir dir_;
  std::unique_ptr<sql::Database> db_;
};

TEST_F(ColumnarDbTest, ScanShapesMatchRowPath) {
  check_both_paths("SELECT * FROM t");
  check_both_paths("SELECT city FROM t WHERE zip = 10001");
  check_both_paths("SELECT id, zip FROM t WHERE city IN ('rome', 'lima')");
  check_both_paths("SELECT * FROM t WHERE city = 'oslo' AND zip = 10002");
  check_both_paths("SELECT * FROM t WHERE city = 'kiev' OR zip = 10000");
  check_both_paths("SELECT * FROM t WHERE city = 'nowhere'");
  check_both_paths("SELECT * FROM t LIMIT 7");
  check_both_paths("SELECT COUNT(*) FROM t WHERE city = 'rome'");
}

TEST_F(ColumnarDbTest, IndexedPlanStillWinsAndUsesColumnarFetch) {
  db_->execute("CREATE INDEX i_city ON t (city)");
  sql::ResultSet rs = db_->execute("SELECT * FROM t WHERE city = 'rome'");
  EXPECT_TRUE(rs.used_index);
  EXPECT_TRUE(rs.used_columnar);  // record fetch from the segment
  EXPECT_EQ(rs.heap_fetches, 0u);
  check_both_paths("SELECT * FROM t WHERE city = 'rome'", true);
}

TEST_F(ColumnarDbTest, ExplainNamesTheColumnarPlan) {
  sql::ResultSet rs = db_->execute("EXPLAIN SELECT * FROM t WHERE zip = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_NE(rs.rows[0][0].as_text().find("columnar scan on t"),
            std::string::npos);
  db_->execute("CREATE INDEX i_city ON t (city)");
  rs = db_->execute("EXPLAIN SELECT * FROM t WHERE city = 'rome'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_NE(rs.rows[0][0].as_text().find(", columnar materialization"),
            std::string::npos);
}

TEST_F(ColumnarDbTest, InsertAppendsTailChunk) {
  auto before_insert = db_->column_store()->snapshot(db_->table("t"));
  auto before = db_->column_store()->stats();
  db_->execute("INSERT INTO t VALUES (100, 'rome', 10000)");
  sql::ResultSet rs = db_->execute("SELECT * FROM t WHERE id = 100");
  EXPECT_TRUE(rs.used_columnar);
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_text(), "rome");
  auto after = db_->column_store()->stats();
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.rebuilds, 0u);
  EXPECT_EQ(after.appends, before.appends + 1);
  // The pre-insert snapshot is still whole and readable.
  EXPECT_EQ(before_insert->row_count(), 40u);
  EXPECT_EQ(before_insert->select(sql::Expr::equals("id", Value::int64(39))),
            (Selection{39}));
  check_both_paths("SELECT * FROM t");
}

TEST_F(ColumnarDbTest, IndexOnlyPlansLeaveTheSegmentAlone) {
  db_->execute("CREATE INDEX i_city ON t (city)");
  db_->execute("SELECT * FROM t");
  const auto before = db_->column_store()->stats();
  db_->execute("INSERT INTO t VALUES (100, 'rome', 10000)");
  const std::string sql = "SELECT id FROM t WHERE city = 'rome'";
  sql::ResultSet rs = db_->execute(sql);
  EXPECT_FALSE(rs.used_columnar);
  EXPECT_EQ(rs.rows.size(), 11u);
  Bytes out;
  select_wire(*db_, sql, &out);
  const auto after = db_->column_store()->stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.appends, before.appends);
}

TEST_F(ColumnarDbTest, ClearCacheDropsSegments) {
  db_->execute("SELECT * FROM t");
  EXPECT_GT(db_->column_store()->stats().segments, 0u);
  db_->clear_cache();
  EXPECT_EQ(db_->column_store()->stats().segments, 0u);
  check_both_paths("SELECT * FROM t");  // rebuilds cold and still matches
}

// ------------------------------------------------------ Wire-path fast path

TEST_F(ColumnarDbTest, WireFastPathIsByteIdenticalToEncodedResultSet) {
  const char* shapes[] = {
      "SELECT * FROM t",
      "SELECT city, id FROM t WHERE zip IN (10000, 10002)",
      "SELECT * FROM t LIMIT 5",
  };
  for (const char* sql : shapes) {
    Bytes fast;
    select_wire(*db_, sql, &fast);
    net::WireWriter w;
    net::encode_result_set(db_->execute(sql), w);
    EXPECT_EQ(fast, w.bytes()) << sql;
  }
}

TEST_F(ColumnarDbTest, WirePathServesEveryPlanByteIdentically) {
  db_->execute("CREATE INDEX i_city ON t (city)");
  const char* shapes[] = {
      "EXPLAIN SELECT * FROM t",
      "SELECT COUNT(*) FROM t",
      "SELECT * FROM t WHERE city = 'rome'",             // index fetch
      "SELECT id FROM t WHERE city IN ('rome', 'oslo')",  // index-only
      "SELECT zip, id FROM t WHERE city = 'lima' AND zip = 10001",
      "SELECT * FROM t",
  };
  // Columnar on and off: each plan shape's response equals the encoded
  // ResultSet, counters included.
  for (bool columnar : {true, false}) {
    db_->set_columnar_enabled(columnar);
    for (const char* sql : shapes) {
      Bytes fast;
      select_wire(*db_, sql, &fast);
      net::WireWriter w;
      net::encode_result_set(db_->execute(sql), w);
      EXPECT_EQ(fast, w.bytes()) << sql << " columnar " << columnar;
    }
  }
  // An error leaves what the buffer already held.
  Bytes out = {1, 2, 3};
  EXPECT_THROW(select_wire(*db_, "SELECT nope FROM t", &out), SqlError);
  EXPECT_EQ(out, (Bytes{1, 2, 3}));
}

// ------------------------------------------ Interleaved writes and reads

// A seeded mix of writes — batches of 1-64 rows (pk ranges landing out of
// order, many straddling a heap page), single-row INSERTs, and a
// hidden-pk table — with a row-path vs columnar comparison after every
// step. Segments must catch up by appending tail chunks: one full build
// per table, no rebuilds, and a logarithmic chunk count.
class InterleavedWritesTest : public ::testing::Test {
 protected:
  InterleavedWritesTest() : dir_("wre_col_interleave"), rng_(20190624) {
    sql::DatabaseOptions opt;
    opt.columnar = true;
    db_ = std::make_unique<sql::Database>(dir_.str(), opt);
    db_->execute(
        "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, city TEXT, "
        "payload BLOB)");
    db_->execute("CREATE INDEX i_pk ON p (k)");
    db_->execute("CREATE TABLE h (k INTEGER, city TEXT, payload BLOB)");
    db_->execute("CREATE INDEX i_hk ON h (k)");
  }

  uint64_t uniform(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }

  /// Cells after the primary key: an indexed key, a low-cardinality city
  /// (sometimes NULL) and a 100-600 byte payload, so pages fill after a
  /// handful of rows.
  sql::Row cells() {
    sql::Row row{Value::int64(static_cast<int64_t>(uniform(0, 9)))};
    row.push_back(uniform(0, 9) == 0
                      ? Value::null()
                      : Value::text("c" + std::to_string(uniform(0, 4))));
    row.push_back(Value::blob(Bytes(uniform(100, 600),
                                    static_cast<uint8_t>(uniform(0, 255)))));
    return row;
  }

  sql::Row p_row(int64_t id) {
    sql::Row row{Value::int64(id)};
    for (Value& v : cells()) row.push_back(std::move(v));
    return row;
  }

  /// Inserts `rows` into `table`, noting batches that began on a
  /// partly filled heap page and ended on a later one.
  void insert(const std::string& table, const std::vector<sql::Row>& rows) {
    const sql::Table& t = db_->table(table);
    const uint64_t heap_bytes = t.data_size_bytes();
    const bool partly_filled = t.row_count() > 0;
    db_->insert_batch(table, rows);
    if (partly_filled && rows.size() > 1 && t.data_size_bytes() > heap_bytes) {
      ++straddles_;
    }
  }

  void insert_one(const std::string& table, const sql::Row& row) {
    std::string sql = "INSERT INTO " + table + " VALUES (";
    for (size_t i = 0; i < row.size(); ++i) {
      sql += (i ? ", " : "") + row[i].to_sql_literal();
    }
    db_->execute(sql + ")");
  }

  /// One seeded write step.
  void write_step() {
    switch (uniform(0, 4)) {
      case 0: {  // a batch of fresh ids, in order
        std::vector<sql::Row> rows;
        for (uint64_t n = uniform(1, 64); n > 0; --n) {
          rows.push_back(p_row(next_id_++));
        }
        insert("p", rows);
        break;
      }
      case 1: {  // two clients' reserved id ranges landing in reverse
        std::vector<sql::Row> first, second;
        for (uint64_t n = uniform(1, 32); n > 0; --n) {
          first.push_back(p_row(next_id_++));
        }
        for (uint64_t n = uniform(1, 32); n > 0; --n) {
          second.push_back(p_row(next_id_++));
        }
        insert("p", second);
        check_all();
        insert("p", first);
        break;
      }
      case 2:
        insert_one("p", p_row(next_id_++));
        break;
      case 3: {
        std::vector<sql::Row> rows;
        for (uint64_t n = uniform(1, 64); n > 0; --n) rows.push_back(cells());
        insert("h", rows);
        break;
      }
      default:
        insert_one("h", cells());
        break;
    }
  }

  /// Runs `sql` on the row path and the columnar path.
  void check(const std::string& sql, bool expect_index) {
    db_->set_columnar_enabled(false);
    sql::ResultSet row = db_->execute(sql);
    db_->set_columnar_enabled(true);
    sql::ResultSet col = db_->execute(sql);
    EXPECT_TRUE(col.used_columnar) << sql;
    EXPECT_EQ(col.used_index, expect_index) << sql;
    EXPECT_EQ(col.heap_fetches, 0u) << sql;
    EXPECT_EQ(row.columns, col.columns) << sql;
    EXPECT_EQ(row.rows, col.rows) << sql;
    // The wire path serves every plan, byte-identically.
    Bytes fast;
    select_wire(*db_, sql, &fast);
    net::WireWriter w;
    net::encode_result_set(col, w);
    EXPECT_EQ(fast, w.bytes()) << sql;
  }

  void check_all() {
    const std::string city = "'c" + std::to_string(uniform(0, 4)) + "'";
    const std::string k1 = std::to_string(uniform(0, 9));
    const std::string k2 = std::to_string(uniform(0, 9));
    for (const char* table : {"p", "h"}) {
      const std::string from = std::string(" FROM ") + table;
      check("SELECT *" + from, false);
      check("SELECT *" + from + " WHERE city = " + city, false);
      check("SELECT payload, k" + from + " WHERE city IN (" + city +
                ", 'c0') OR k = " + k1,
            false);
      check("SELECT *" + from + " WHERE k IN (" + k1 + ", " + k2 + ")", true);
      check("SELECT city, payload" + from + " WHERE k = " + k1 +
                " AND city = " + city,
            true);

      const sql::Table& t = db_->table(table);
      auto seg = db_->column_store()->snapshot(t);
      ASSERT_EQ(seg->row_count(), t.row_count());
      size_t bound = 1;  // ⌈log2 rows⌉ + 1
      while ((uint64_t{1} << (bound - 1)) < t.row_count()) ++bound;
      EXPECT_LE(seg->chunk_count(), bound) << table << " rows "
                                           << t.row_count();
    }
    EXPECT_EQ(db_->column_store()->stats().rebuilds, 0u);
  }

  TempDir dir_;
  std::mt19937_64 rng_;
  std::unique_ptr<sql::Database> db_;
  int64_t next_id_ = 0;
  int straddles_ = 0;
};

TEST_F(InterleavedWritesTest, EveryStepMatchesRowPathWithoutRebuilds) {
  for (int step = 0; step < 60; ++step) {
    write_step();
    check_all();
    ASSERT_EQ(db_->column_store()->stats().builds, 2u) << "step " << step;
  }
  auto st = db_->column_store()->stats();
  EXPECT_GT(st.appends, 0u);
  EXPECT_GT(st.merges, 0u);
  EXPECT_GT(straddles_, 5);

  // Cold cache: one more full build per table, then appends again.
  db_->clear_cache();
  check_all();
  EXPECT_EQ(db_->column_store()->stats().builds, 4u);
  for (int step = 0; step < 10; ++step) {
    write_step();
    check_all();
  }

  // Writes while the store is off leave the cached segments behind; the
  // first query after re-enabling catches up with a tail chunk.
  db_->set_columnar_enabled(false);
  for (int step = 0; step < 5; ++step) write_step();
  db_->set_columnar_enabled(true);
  check_all();
  st = db_->column_store()->stats();
  EXPECT_EQ(st.builds, 4u);
  EXPECT_EQ(st.rebuilds, 0u);
}

}  // namespace
}  // namespace wre::columnar
