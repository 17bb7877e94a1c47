#include <gtest/gtest.h>

#include "src/sql/database.h"
#include "src/sql/parser.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace wre::sql {
namespace {

using wre::testing::TempDir;

// ------------------------------------------------------------------ Value

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value::null().is_null());
  EXPECT_EQ(Value::int64(-5).as_int64(), -5);
  EXPECT_EQ(Value::text("hi").as_text(), "hi");
  EXPECT_EQ(Value::blob({1, 2}).as_blob(), (Bytes{1, 2}));
}

TEST(Value, TagBitcastRoundTrip) {
  uint64_t big = 0xfedcba9876543210ULL;
  EXPECT_EQ(Value::tag(big).as_tag(), big);
}

TEST(Value, AccessorTypeMismatchThrows) {
  EXPECT_THROW(Value::int64(1).as_text(), SqlError);
  EXPECT_THROW(Value::text("x").as_int64(), SqlError);
  EXPECT_THROW(Value::null().as_blob(), SqlError);
}

TEST(Value, SqlEqualsNullSemantics) {
  EXPECT_FALSE(Value::null().sql_equals(Value::null()));
  EXPECT_FALSE(Value::null().sql_equals(Value::int64(0)));
  EXPECT_TRUE(Value::int64(3).sql_equals(Value::int64(3)));
  EXPECT_FALSE(Value::int64(3).sql_equals(Value::text("3")));
}

TEST(Value, SqlLiteralRendering) {
  EXPECT_EQ(Value::null().to_sql_literal(), "NULL");
  EXPECT_EQ(Value::int64(-42).to_sql_literal(), "-42");
  EXPECT_EQ(Value::text("it's").to_sql_literal(), "'it''s'");
  EXPECT_EQ(Value::blob({0xab, 0xcd}).to_sql_literal(), "X'abcd'");
}

// ----------------------------------------------------------------- Schema

Schema person_schema() {
  return Schema({Column{"id", ValueType::kInt64, true},
                 Column{"name", ValueType::kText},
                 Column{"data", ValueType::kBlob}});
}

TEST(Schema, IndexOfIsCaseInsensitive) {
  Schema s = person_schema();
  EXPECT_EQ(s.index_of("NAME"), 1u);
  EXPECT_EQ(s.index_of("nope"), std::nullopt);
}

TEST(Schema, PrimaryKeyDetected) {
  EXPECT_EQ(person_schema().primary_key_index(), 0u);
  Schema no_pk({Column{"a", ValueType::kText}});
  EXPECT_EQ(no_pk.primary_key_index(), std::nullopt);
}

TEST(Schema, RejectsTextPrimaryKey) {
  EXPECT_THROW(Schema({Column{"a", ValueType::kText, true}}), SqlError);
}

TEST(Schema, RejectsDuplicateColumns) {
  EXPECT_THROW(Schema({Column{"a", ValueType::kText},
                       Column{"A", ValueType::kInt64}}),
               SqlError);
}

TEST(Schema, RowRoundTrip) {
  Schema s = person_schema();
  Row row = {Value::int64(7), Value::text("Ada"), Value::blob({9, 8, 7})};
  EXPECT_EQ(s.decode_row(s.encode_row(row)), row);
}

TEST(Schema, RowRoundTripWithNull) {
  Schema s = person_schema();
  Row row = {Value::int64(7), Value::null(), Value::null()};
  EXPECT_EQ(s.decode_row(s.encode_row(row)), row);
}

TEST(Schema, CheckRowRejectsArityMismatch) {
  Schema s = person_schema();
  EXPECT_THROW(s.check_row({Value::int64(1)}), SqlError);
}

TEST(Schema, CheckRowRejectsTypeMismatch) {
  Schema s = person_schema();
  EXPECT_THROW(
      s.check_row({Value::int64(1), Value::int64(2), Value::blob({})}),
      SqlError);
}

TEST(Schema, CheckRowRejectsNullPrimaryKey) {
  Schema s = person_schema();
  EXPECT_THROW(s.check_row({Value::null(), Value::text("x"), Value::null()}),
               SqlError);
}

TEST(Schema, DecodeRejectsCorruptRecords) {
  Schema s = person_schema();
  Row row = {Value::int64(7), Value::text("Ada"), Value::blob({1})};
  Bytes enc = s.encode_row(row);
  Bytes truncated(enc.begin(), enc.end() - 1);
  EXPECT_THROW(s.decode_row(truncated), SqlError);
  Bytes extended = enc;
  extended.push_back(0);
  EXPECT_THROW(s.decode_row(extended), SqlError);
}

// ----------------------------------------------------------------- Parser

TEST(Parser, CreateTable) {
  auto stmt = parse_statement(
      "CREATE TABLE People (id INTEGER PRIMARY KEY, name TEXT, data BLOB)");
  auto& ct = std::get<CreateTableStmt>(stmt);
  EXPECT_EQ(ct.table, "people");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_TRUE(ct.columns[0].primary_key);
  EXPECT_EQ(ct.columns[1].type, ValueType::kText);
  EXPECT_EQ(ct.columns[2].type, ValueType::kBlob);
}

TEST(Parser, CreateIndexWithAndWithoutName) {
  auto a = std::get<CreateIndexStmt>(
      parse_statement("CREATE INDEX idx_tag ON main (fname_tag)"));
  EXPECT_EQ(a.index_name, "idx_tag");
  EXPECT_EQ(a.table, "main");
  EXPECT_EQ(a.column, "fname_tag");
  auto b = std::get<CreateIndexStmt>(
      parse_statement("CREATE INDEX ON main (city)"));
  EXPECT_TRUE(b.index_name.empty());
  EXPECT_EQ(b.column, "city");
}

TEST(Parser, InsertMultiRow) {
  auto stmt = std::get<InsertStmt>(parse_statement(
      "INSERT INTO t VALUES (1, 'a', X'00ff'), (2, NULL, X'')"));
  ASSERT_EQ(stmt.rows.size(), 2u);
  EXPECT_EQ(stmt.rows[0][0].as_int64(), 1);
  EXPECT_EQ(stmt.rows[0][2].as_blob(), (Bytes{0x00, 0xff}));
  EXPECT_TRUE(stmt.rows[1][1].is_null());
}

TEST(Parser, StringEscapes) {
  auto stmt = std::get<InsertStmt>(
      parse_statement("INSERT INTO t VALUES ('it''s ok')"));
  EXPECT_EQ(stmt.rows[0][0].as_text(), "it's ok");
}

TEST(Parser, SelectStarWithWhere) {
  auto stmt = std::get<SelectStmt>(
      parse_statement("SELECT * FROM main WHERE fname = 'Alice'"));
  EXPECT_TRUE(stmt.star);
  ASSERT_TRUE(stmt.where.has_value());
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kEquals);
  EXPECT_EQ(stmt.where->column, "fname");
}

TEST(Parser, SelectColumnsOrChain) {
  auto stmt = std::get<SelectStmt>(parse_statement(
      "SELECT id, fname FROM main WHERE tag = 1 OR tag = 2 OR tag = 3"));
  EXPECT_EQ(stmt.columns, (std::vector<std::string>{"id", "fname"}));
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kOr);
  EXPECT_EQ(stmt.where->children.size(), 3u);
}

TEST(Parser, SelectInList) {
  auto stmt = std::get<SelectStmt>(
      parse_statement("SELECT id FROM main WHERE tag IN (1, 2, 3)"));
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kIn);
  EXPECT_EQ(stmt.where->values.size(), 3u);
}

TEST(Parser, SelectCountStar) {
  auto stmt = std::get<SelectStmt>(
      parse_statement("SELECT COUNT(*) FROM main WHERE a = 1"));
  EXPECT_TRUE(stmt.count_star);
}

TEST(Parser, SelectWithLimitAndSemicolon) {
  auto stmt = std::get<SelectStmt>(
      parse_statement("SELECT * FROM t LIMIT 10;"));
  EXPECT_EQ(stmt.limit, 10u);
}

TEST(Parser, AndOrPrecedenceAndParens) {
  Expr e = parse_expression("a = 1 AND b = 2 OR c = 3");
  // OR binds loosest: (a AND b) OR c.
  ASSERT_EQ(e.kind, Expr::Kind::kOr);
  ASSERT_EQ(e.children.size(), 2u);
  EXPECT_EQ(e.children[0].kind, Expr::Kind::kAnd);
  Expr f = parse_expression("a = 1 AND (b = 2 OR c = 3)");
  ASSERT_EQ(f.kind, Expr::Kind::kAnd);
  EXPECT_EQ(f.children[1].kind, Expr::Kind::kOr);
}

TEST(Parser, GarbageNeverCrashes) {
  // Random byte soup must either parse or throw SqlError — no crashes, no
  // other exception types.
  constexpr std::string_view kSoup =
      " ()',=*;xX0123456789abcSELECTFROMWHEREINSERT\t\n\"%-";
  wre::Xoshiro256 rng(0xbadf00d);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    size_t len = rng.next_below(60);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(kSoup[rng.next_below(kSoup.size())]);
    }
    try {
      (void)parse_statement(input);
    } catch (const SqlError&) {
      // expected for most inputs
    }
  }
}

TEST(Parser, SyntaxErrorsAreReported) {
  EXPECT_THROW(parse_statement("SELEKT * FROM t"), SqlError);
  EXPECT_THROW(parse_statement("SELECT * FROM"), SqlError);
  EXPECT_THROW(parse_statement("INSERT INTO t VALUES (1"), SqlError);
  EXPECT_THROW(parse_statement("SELECT * FROM t WHERE a ="), SqlError);
  EXPECT_THROW(parse_statement("SELECT * FROM t trailing junk"), SqlError);
  EXPECT_THROW(parse_statement("CREATE TABLE t (a FLOAT)"), SqlError);
  EXPECT_THROW(parse_statement("INSERT INTO t VALUES ('unterminated"),
               SqlError);
}

// ----------------------------------------------------- extract disjunction

TEST(Planner, ExtractsSingleColumnDisjunction) {
  auto got = extract_single_column_disjunction(
      parse_expression("tag = 1 OR tag = 2 OR tag IN (3, 4)"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, "tag");
  EXPECT_EQ(got->second.size(), 4u);
}

TEST(Planner, RejectsMultiColumnDisjunction) {
  EXPECT_FALSE(extract_single_column_disjunction(
                   parse_expression("a = 1 OR b = 2"))
                   .has_value());
}

TEST(Planner, RejectsConjunction) {
  EXPECT_FALSE(extract_single_column_disjunction(
                   parse_expression("a = 1 AND a = 2"))
                   .has_value());
}

// ------------------------------------------------------------ Table & DB

TEST(Database, CreateInsertSelectViaSql) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("INSERT INTO t VALUES (1, 'alice'), (2, 'bob'), (3, 'alice')");
  auto rs = db.execute("SELECT * FROM t WHERE name = 'alice'");
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_FALSE(rs.used_index);  // no index on name yet
}

TEST(Database, IndexProbeIsUsedWhenAvailable) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("CREATE INDEX ON t (name)");
  db.execute("INSERT INTO t VALUES (1, 'alice'), (2, 'bob'), (3, 'alice')");
  auto rs = db.execute("SELECT * FROM t WHERE name = 'alice'");
  EXPECT_TRUE(rs.used_index);
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.index_probes, 1u);
}

TEST(Database, IndexOnlySelectIdAvoidsHeap) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  db.execute("INSERT INTO t VALUES (1, 100), (2, 100), (3, 200)");
  auto rs = db.execute("SELECT id FROM t WHERE tag = 100");
  EXPECT_TRUE(rs.used_index);
  EXPECT_EQ(rs.heap_fetches, 0u);  // resolved from the index alone
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int64(), 1);
  EXPECT_EQ(rs.rows[1][0].as_int64(), 2);
}

TEST(Database, SelectStarFetchesHeap) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  db.execute("INSERT INTO t VALUES (1, 100), (2, 100)");
  auto rs = db.execute("SELECT * FROM t WHERE tag = 100");
  EXPECT_EQ(rs.heap_fetches, 2u);
}

TEST(Database, TextIndexSelectIdIsIndexOnly) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("CREATE INDEX ON t (name)");
  db.execute("INSERT INTO t VALUES (1, 'x')");
  // SELECT id over a hashed text index answers from the index alone (the
  // 64-bit hash key's collision risk is accepted, like a hash index).
  auto rs = db.execute("SELECT id FROM t WHERE name = 'x'");
  EXPECT_EQ(rs.heap_fetches, 0u);
  EXPECT_EQ(rs.rows.size(), 1u);
}

TEST(Database, TextIndexSelectStarStillRechecks) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("CREATE INDEX ON t (name)");
  db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  auto rs = db.execute("SELECT * FROM t WHERE name = 'x'");
  EXPECT_EQ(rs.heap_fetches, 1u);
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_text(), "x");
}

TEST(Database, InClauseProbesOncePerDistinctValue) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  auto rs = db.execute("SELECT id FROM t WHERE tag IN (10, 20, 20, 10)");
  EXPECT_EQ(rs.index_probes, 2u);
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST(Database, CountStar) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("INSERT INTO t VALUES (1, 10), (2, 10), (3, 30)");
  auto rs = db.execute("SELECT COUNT(*) FROM t WHERE tag = 10");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int64(), 2);
}

TEST(Database, LimitCapsResults) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  for (int i = 0; i < 20; ++i) {
    db.execute("INSERT INTO t VALUES (" + std::to_string(i) + ", 5)");
  }
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE tag = 5 LIMIT 7").rows.size(),
            7u);
}

TEST(Database, DuplicatePrimaryKeyRejected) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("INSERT INTO t VALUES (1, 'a')");
  EXPECT_THROW(db.execute("INSERT INTO t VALUES (1, 'b')"), SqlError);
}

TEST(Database, NullsAreNotIndexedAndNeverEqual) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("CREATE INDEX ON t (name)");
  db.execute("INSERT INTO t VALUES (1, NULL), (2, 'x')");
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE name = 'x'").rows.size(), 1u);
}

TEST(Database, UnknownTableAndColumnErrors) {
  TempDir dir;
  Database db(dir.str());
  EXPECT_THROW(db.execute("SELECT * FROM nope"), SqlError);
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)");
  EXPECT_THROW(db.execute("SELECT nope FROM t"), SqlError);
  EXPECT_THROW(db.execute("SELECT * FROM t WHERE ghost = 1"), SqlError);
  EXPECT_THROW(db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)"),
               SqlError);
}

TEST(Database, CatalogPersistsAcrossReopen) {
  TempDir dir;
  {
    Database db(dir.str());
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
    db.execute("CREATE INDEX ON t (name)");
    db.execute("INSERT INTO t VALUES (1, 'alice')");
    db.checkpoint();
  }
  Database db(dir.str());
  auto rs = db.execute("SELECT * FROM t WHERE name = 'alice'");
  EXPECT_TRUE(rs.used_index);
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_text(), "alice");
}

TEST(Database, HiddenRowidTablesWork) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (name TEXT, v INTEGER)");
  db.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)");
  auto rs = db.execute("SELECT * FROM t WHERE name = 'b'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_int64(), 2);
}

TEST(Database, CreateIndexBackfillsExistingRows) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("INSERT INTO t VALUES (1, 9), (2, 9), (3, 8)");
  db.execute("CREATE INDEX ON t (tag)");
  auto rs = db.execute("SELECT id FROM t WHERE tag = 9");
  EXPECT_TRUE(rs.used_index);
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST(Database, ClearCacheKeepsResultsCorrect) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  for (int i = 0; i < 500; ++i) {
    db.execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
               std::to_string(i % 10) + ")");
  }
  auto warm = db.execute("SELECT id FROM t WHERE tag = 3");
  db.clear_cache();
  auto cold = db.execute("SELECT id FROM t WHERE tag = 3");
  EXPECT_EQ(warm.rows.size(), cold.rows.size());
  EXPECT_EQ(cold.rows.size(), 50u);
}

TEST(Database, SizesGrowWithData) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  db.execute("CREATE INDEX ON t (name)");
  uint64_t d0 = db.data_size_bytes();
  uint64_t i0 = db.index_size_bytes();
  for (int i = 0; i < 2000; ++i) {
    db.execute("INSERT INTO t VALUES (" + std::to_string(i) + ", 'name" +
               std::to_string(i) + "')");
  }
  EXPECT_GT(db.data_size_bytes(), d0);
  EXPECT_GT(db.index_size_bytes(), i0);
}

TEST(Database, ConjunctionUsesIndexAndRechecks) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER, grp INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  for (int i = 0; i < 100; ++i) {
    db.execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
               std::to_string(i % 10) + ", " + std::to_string(i % 3) + ")");
  }
  auto rs = db.execute("SELECT * FROM t WHERE tag = 4 AND grp = 1");
  EXPECT_TRUE(rs.used_index);
  // 10 rows have tag=4; of those, ids 4,34,64,94 -> grp = 1,1,1,1.
  size_t expected = 0;
  for (int i = 4; i < 100; i += 10) {
    if (i % 3 == 1) ++expected;
  }
  EXPECT_EQ(rs.rows.size(), expected);
  EXPECT_EQ(rs.heap_fetches, 10u);  // all tag=4 rows fetched, then rechecked
}

TEST(Database, ConjunctionPicksMostSelectiveIndexedChild) {
  TempDir dir;
  Database db(dir.str());
  db.execute(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)");
  db.execute("CREATE INDEX ON t (a)");
  db.execute("CREATE INDEX ON t (b)");
  for (int i = 0; i < 50; ++i) {
    db.execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
               std::to_string(i % 2) + ", " + std::to_string(i) + ")");
  }
  // `b = 7` (IN-list of 1) is more selective than `a IN (0, 1)`.
  auto rs = db.execute("SELECT * FROM t WHERE a IN (0, 1) AND b = 7");
  EXPECT_TRUE(rs.used_index);
  EXPECT_EQ(rs.index_probes, 1u);
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int64(), 7);
}

TEST(Database, ConjunctionSelectIdStillFetchesForRecheck) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER, g INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  db.execute("INSERT INTO t VALUES (1, 5, 0), (2, 5, 1)");
  auto rs = db.execute("SELECT id FROM t WHERE tag = 5 AND g = 1");
  EXPECT_TRUE(rs.used_index);
  EXPECT_GT(rs.heap_fetches, 0u);  // residual predicate needs the rows
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int64(), 2);
}

TEST(Database, ConjunctionWithoutIndexedChildSeqScans) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)");
  db.execute("INSERT INTO t VALUES (1, 1, 2), (2, 1, 3)");
  auto rs = db.execute("SELECT * FROM t WHERE a = 1 AND b = 3");
  EXPECT_FALSE(rs.used_index);
  EXPECT_EQ(rs.rows.size(), 1u);
}

TEST(Database, ExplainDescribesIndexPlan) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("CREATE INDEX ON t (tag)");
  db.execute("INSERT INTO t VALUES (1, 5)");

  auto rs = db.execute("EXPLAIN SELECT id FROM t WHERE tag IN (1, 2, 3)");
  ASSERT_EQ(rs.rows.size(), 1u);
  std::string plan = rs.rows[0][0].as_text();
  EXPECT_NE(plan.find("multi-probe index scan"), std::string::npos);
  EXPECT_NE(plan.find("3 probe(s)"), std::string::npos);
  EXPECT_NE(plan.find("index-only"), std::string::npos);

  auto seq = db.execute("EXPLAIN SELECT * FROM t");
  EXPECT_NE(seq.rows[0][0].as_text().find("sequential scan"),
            std::string::npos);

  auto conj =
      db.execute("EXPLAIN SELECT * FROM t WHERE tag = 1 AND id = 2");
  EXPECT_NE(conj.rows[0][0].as_text().find("recheck residual"),
            std::string::npos);
}

TEST(Database, ExplainDoesNotExecute) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  db.execute("INSERT INTO t VALUES (1, 5)");
  auto rs = db.execute("EXPLAIN SELECT * FROM t WHERE tag = 5");
  EXPECT_EQ(rs.heap_fetches, 0u);
  EXPECT_EQ(rs.index_probes, 0u);
  ASSERT_EQ(rs.rows.size(), 1u);  // one plan row, not one data row
  EXPECT_EQ(rs.columns, std::vector<std::string>{"plan"});
}

TEST(Database, BlobRoundTripThroughSql) {
  TempDir dir;
  Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, data BLOB)");
  db.execute("INSERT INTO t VALUES (1, X'deadbeef')");
  auto rs = db.execute("SELECT * FROM t WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_blob(), from_hex("deadbeef"));
}

}  // namespace
}  // namespace wre::sql
