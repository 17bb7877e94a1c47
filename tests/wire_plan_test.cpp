// The executor's one output, Database::execute_select_wire, on every plan
// shape with the column store off and on: each answer against a
// brute-force plaintext oracle over the rows the test inserted, the
// columnar answer against the row path's, and execute_select (a decode of
// those bytes) re-encoding to exactly them, with the local columnar
// counters it adds. Then the one answer decoder (ResultSet::wire_decode)
// under seeded mutation, and the record codec it all rests on: a heap
// record is the body of a wire row, and the non-allocating record walker
// (Schema::split_record) accepts and rejects exactly what
// Schema::decode_row does. A byte cap on the wire executor stops an
// oversized answer early.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/wire.h"
#include "src/sql/database.h"
#include "src/sql/parser.h"
#include "src/util/error.h"
#include "tests/test_util.h"

namespace wre::sql {

// gtest prints a Value in a failure message as its SQL literal.
void PrintTo(const Value& v, std::ostream* os) { *os << v.to_sql_literal(); }

namespace {

using wre::testing::TempDir;

// ------------------------------------- Plans: wire == ResultSet == oracle

/// The parameter turns the column store on.
class WirePlanTest : public ::testing::TestWithParam<bool> {
 protected:
  WirePlanTest() : dir_("wre_wire_plan"), rng_(20190625) {
    DatabaseOptions opt;
    opt.columnar = GetParam();
    db_ = std::make_unique<Database>(dir_.str(), opt);
    db_->execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, tag INTEGER, name TEXT, "
        "payload BLOB, zip INTEGER)");
    db_->execute("CREATE INDEX i_tag ON m (tag)");
    db_->execute("CREATE INDEX i_name ON m (name)");  // text-keyed
    db_->execute("CREATE TABLE h (tag INTEGER, name TEXT, payload BLOB)");
    db_->execute("CREATE INDEX i_htag ON h (tag)");  // hidden-pk table
  }

  uint64_t uniform(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }

  /// A cell that is NULL one time in eight.
  Value maybe_null(Value v) {
    return uniform(0, 7) == 0 ? Value::null() : std::move(v);
  }

  Row cells() {
    Row row;
    row.push_back(maybe_null(Value::int64(static_cast<int64_t>(uniform(0, 9)))));
    row.push_back(maybe_null(Value::text("n" + std::to_string(uniform(0, 5)))));
    row.push_back(maybe_null(Value::blob(
        Bytes(uniform(0, 300), static_cast<uint8_t>(uniform(0, 255))))));
    return row;
  }

  /// Appends ids [first, first + n) to `m` in descending heap order, and
  /// a seeded batch to `h`.
  void insert_batch(int64_t first, int64_t n) {
    std::vector<Row> m_rows;
    for (int64_t id = first + n - 1; id >= first; --id) {
      Row row{Value::int64(id)};
      for (Value& v : cells()) row.push_back(std::move(v));
      row.push_back(Value::int64(static_cast<int64_t>(10000 + uniform(0, 2))));
      m_rows.push_back(std::move(row));
    }
    db_->insert_batch("m", m_rows);
    std::vector<Row> h_rows;
    for (uint64_t n = uniform(10, 40); n > 0; --n) h_rows.push_back(cells());
    db_->insert_batch("h", h_rows);
    m_.rows.insert(m_.rows.end(), m_rows.begin(), m_rows.end());
    h_.rows.insert(h_.rows.end(), h_rows.begin(), h_rows.end());
  }

  /// Two reserved id ranges landing in reverse, with every plan checked
  /// after each: pk order then runs backwards across column chunks.
  template <typename Check>
  void write_and_check(Check check) {
    const int64_t low = next_id_;
    // The low range is the smaller, so its tail chunk stays unmerged.
    const int64_t low_n = static_cast<int64_t>(uniform(5, 15));
    const int64_t high_n = static_cast<int64_t>(uniform(20, 40));
    next_id_ += low_n + high_n;
    insert_batch(low + low_n, high_n);
    for (const std::string& sql : shapes()) check(sql);
    insert_batch(low, low_n);
    for (const std::string& sql : shapes()) check(sql);
  }

  std::string tag() { return std::to_string(uniform(0, 9)); }
  std::string name() { return "'n" + std::to_string(uniform(0, 5)) + "'"; }
  std::string zip() { return std::to_string(10000 + uniform(0, 2)); }

  /// A wide IN list: duplicates, a NULL, an absent tag, a cross-type
  /// literal — and enough terms to fan the probes out over the pool.
  std::string wide_in() {
    std::string list = tag() + ", " + tag() + ", NULL, 99, '3'";
    for (int i = 0; i < 16; ++i) list += ", " + tag();
    return list;
  }

  /// One statement per plan shape, drawn fresh each round.
  std::vector<std::string> shapes() {
    const std::string t = tag();
    return {
        // Index-only.
        "SELECT id FROM m WHERE tag IN (" + wide_in() + ")",
        "SELECT id, id FROM m WHERE tag = " + t + " OR tag = " + tag(),
        "SELECT COUNT(*) FROM m WHERE tag IN (" + t + ", " + tag() + ")",
        "SELECT id FROM m WHERE tag IN (" + t + ", " + tag() + ") LIMIT 3",
        // Heap / columnar record fetch, serial and parallel.
        "SELECT * FROM m WHERE tag IN (" + wide_in() + ")",
        "SELECT * FROM m WHERE tag = " + t,
        "SELECT payload, name FROM m WHERE tag IN (" + t + ", " + t + ", NULL)",
        // Residual AND, including a pk-only projection that must fetch.
        "SELECT * FROM m WHERE tag IN (" + wide_in() + ") AND zip = " + zip(),
        "SELECT id FROM m WHERE tag IN (" + t + ", " + tag() +
            ") AND name = " + name(),
        "SELECT COUNT(*) FROM m WHERE tag = " + t + " AND zip = " + zip(),
        "SELECT zip FROM m WHERE zip = " + zip() + " AND tag IN (" + t + ")",
        // LIMIT 0, 1 and mid-result on each access path.
        "SELECT * FROM m WHERE tag IN (" + wide_in() + ") LIMIT 0",
        "SELECT * FROM m WHERE tag IN (" + wide_in() + ") LIMIT 1",
        "SELECT name, id FROM m WHERE tag IN (" + wide_in() + ") LIMIT 7",
        "SELECT * FROM m LIMIT 0",
        "SELECT * FROM m WHERE zip = " + zip() + " LIMIT 5",
        // Text-keyed index.
        "SELECT * FROM m WHERE name IN (" + name() + ", " + name() + ")",
        "SELECT id FROM m WHERE name = " + name(),
        // Cross-type literals never match.
        "SELECT * FROM m WHERE name IN (3, " + name() + ")",
        "SELECT * FROM m WHERE tag = 'n1'",
        "SELECT * FROM m WHERE payload = 'n1' OR zip = " + zip(),
        "SELECT * FROM m WHERE name = X'6e31'",
        // Scans.
        "SELECT * FROM m",
        "SELECT payload, zip FROM m WHERE name = " + name() + " OR zip = " +
            zip(),
        "SELECT COUNT(*) FROM m",
        // Hidden primary key.
        "SELECT * FROM h WHERE tag IN (" + wide_in() + ")",
        "SELECT name FROM h WHERE tag = " + t + " AND name = " + name(),
        "SELECT COUNT(*) FROM h WHERE tag IN (" + t + ")",
        "SELECT * FROM h",
        "SELECT tag FROM h WHERE payload = X'' LIMIT 4",
        // EXPLAIN renders the plan that runs.
        "EXPLAIN SELECT * FROM m WHERE tag IN (" + t + ") AND zip = 10000",
        "EXPLAIN SELECT * FROM h",
    };
  }

  /// The wire executor's bytes must equal the encoded ResultSet, and the
  /// answer the oracle's and the row path's.
  void check(const std::string& sql) {
    const SelectStmt stmt = std::get<SelectStmt>(parse_statement(sql));
    const ResultSet rs = db_->execute_select(stmt);
    Bytes wire;
    db_->execute_select_wire(stmt, &wire);
    net::WireWriter w;
    net::encode_result_set(rs, w);
    ASSERT_EQ(wire, w.bytes()) << sql;
    if (stmt.explain) return;
    expect_oracle_answer(sql, stmt, rs);
    // The answer itself matches a row-path run.
    db_->set_columnar_enabled(false);
    const ResultSet ref = db_->execute_select(stmt);
    db_->set_columnar_enabled(GetParam());
    EXPECT_EQ(rs.columns, ref.columns) << sql;
    EXPECT_EQ(rs.rows, ref.rows) << sql;
    EXPECT_EQ(rs.index_probes, ref.index_probes) << sql;
    EXPECT_EQ(rs.used_index, ref.used_index) << sql;
  }

  /// execute_select's local counters, which the wire form does not carry:
  /// with the column store on, every plan that reads rows (fetch or scan)
  /// reports used_columnar and one columnar row per row it writes, and
  /// index-only plans report neither. The row path never reports either.
  void check_counters(const std::string& sql) {
    const SelectStmt stmt = std::get<SelectStmt>(parse_statement(sql));
    const ResultSet rs = db_->execute_select(stmt);
    SelectStmt explain = stmt;
    explain.explain = true;
    const std::string plan =
        db_->execute_select(explain).rows.at(0).at(0).as_text();
    const bool reads_rows = GetParam() && !stmt.explain &&
                            plan.find("index-only") == std::string::npos;
    EXPECT_EQ(rs.used_columnar, reads_rows) << sql << " -- " << plan;
    // COUNT(*) writes no rows, only its count.
    const uint64_t written =
        reads_rows && !stmt.count_star ? rs.rows.size() : 0;
    EXPECT_EQ(rs.columnar_rows, written) << sql << " -- " << plan;
    if (!stmt.explain) {
      EXPECT_EQ(rs.used_columnar, plan.find("columnar") != std::string::npos)
          << sql << " -- " << plan;
    }
  }

  /// A table's rows as inserted, and its column names: what the plaintext
  /// oracle reads.
  struct PlainTable {
    std::vector<std::string> names;
    std::vector<Row> rows;
  };

  static size_t column_of(const PlainTable& t, const std::string& name) {
    auto it = std::find(t.names.begin(), t.names.end(), to_lower(name));
    if (it == t.names.end()) throw std::logic_error("oracle: no " + name);
    return static_cast<size_t>(it - t.names.begin());
  }

  /// Value::sql_equals semantics: NULL and cross-type literals never match.
  static bool satisfies(const Expr& e, const PlainTable& t, const Row& row) {
    switch (e.kind) {
      case Expr::Kind::kEquals:
      case Expr::Kind::kIn: {
        const Value& cell = row[column_of(t, e.column)];
        return std::any_of(e.values.begin(), e.values.end(),
                           [&](const Value& v) { return cell.sql_equals(v); });
      }
      case Expr::Kind::kAnd:
        return std::all_of(
            e.children.begin(), e.children.end(),
            [&](const Expr& c) { return satisfies(c, t, row); });
      case Expr::Kind::kOr:
        return std::any_of(
            e.children.begin(), e.children.end(),
            [&](const Expr& c) { return satisfies(c, t, row); });
    }
    return false;
  }

  /// Brute force over every inserted row: the answer's columns, and every
  /// match projected (all of them: LIMIT is left to the comparison).
  ResultSet oracle(const SelectStmt& stmt) const {
    const PlainTable& t = to_lower(stmt.table) == "m" ? m_ : h_;
    ResultSet want;
    std::vector<size_t> projection;
    if (stmt.count_star) {
      want.columns = {"count(*)"};
    } else if (stmt.star) {
      want.columns = t.names;
      for (size_t i = 0; i < t.names.size(); ++i) projection.push_back(i);
    } else {
      for (const std::string& name : stmt.columns) {
        projection.push_back(column_of(t, name));
        want.columns.push_back(to_lower(name));
      }
    }
    for (const Row& row : t.rows) {
      if (stmt.where && !satisfies(*stmt.where, t, row)) continue;
      Row& out = want.rows.emplace_back();
      for (size_t i : projection) out.push_back(row[i]);
    }
    if (stmt.count_star) {
      const uint64_t n = std::min<uint64_t>(want.rows.size(),
                                            stmt.limit.value_or(UINT64_MAX));
      want.rows = {{Value::int64(static_cast<int64_t>(n))}};
    }
    return want;
  }

  /// The answer equals the oracle's as a multiset of rows; under LIMIT n
  /// it is any n of the matches (or all of them, if fewer).
  void expect_oracle_answer(const std::string& sql, const SelectStmt& stmt,
                            const ResultSet& rs) const {
    ResultSet want = oracle(stmt);
    EXPECT_EQ(rs.columns, want.columns) << sql;
    std::vector<Row> got = rs.rows;
    std::sort(got.begin(), got.end());
    std::sort(want.rows.begin(), want.rows.end());
    if (stmt.limit && !stmt.count_star) {
      EXPECT_EQ(got.size(), std::min<size_t>(want.rows.size(), *stmt.limit))
          << sql;
      EXPECT_TRUE(std::includes(want.rows.begin(), want.rows.end(),
                                got.begin(), got.end()))
          << sql;
    } else {
      EXPECT_EQ(got, want.rows) << sql;
    }
  }

  TempDir dir_;
  std::mt19937_64 rng_;
  std::unique_ptr<Database> db_;
  int64_t next_id_ = 0;
  PlainTable m_{{"id", "tag", "name", "payload", "zip"}, {}};
  PlainTable h_{{"tag", "name", "payload"}, {}};
};

TEST_P(WirePlanTest, EveryPlanIsByteIdenticalToTheEncodedResultSet) {
  for (int round = 0; round < 4; ++round) {
    write_and_check([&](const std::string& sql) { check(sql); });
  }
}

TEST_P(WirePlanTest, ColumnarCountersSurviveTheDecode) {
  for (int round = 0; round < 2; ++round) {
    write_and_check(
        [&](const std::string& sql) { check_counters(sql); });
  }
}

TEST_P(WirePlanTest, LimitZeroFetchesNothing) {
  insert_batch(0, 40);
  const ResultSet rs =
      db_->execute("SELECT * FROM m WHERE tag IN (0, 1, 2, 3) LIMIT 0");
  EXPECT_TRUE(rs.rows.empty());
  EXPECT_EQ(rs.heap_fetches, 0u);
  EXPECT_EQ(rs.columnar_rows, 0u);
}

// A capped call builds the answer up to the cap and no further: a body of
// exactly the cap is returned whole, one byte over stops the query with
// FrameTooLargeError and leaves `*out` as it was.
TEST_P(WirePlanTest, CappedCallThrowsPastTheCapAndLeavesOutUnchanged) {
  insert_batch(0, 40);
  for (const std::string sql :
       {"SELECT * FROM m", "SELECT * FROM m WHERE tag IN (0, 1, 2, 3)",
        "SELECT id FROM m WHERE tag = 1", "SELECT COUNT(*) FROM m",
        "EXPLAIN SELECT * FROM m"}) {
    SCOPED_TRACE(sql);
    const SelectStmt stmt = std::get<SelectStmt>(parse_statement(sql));
    Bytes full;
    db_->execute_select_wire(stmt, &full);
    const Bytes prefix = {0xAB, 0xCD};
    Bytes out = prefix;
    db_->execute_select_wire(stmt, &out, full.size());
    EXPECT_EQ(Bytes(out.begin() + 2, out.end()), full);
    for (size_t cap : {full.size() - 1, size_t{0}}) {
      out = prefix;
      EXPECT_THROW(db_->execute_select_wire(stmt, &out, cap),
                   FrameTooLargeError);
      EXPECT_EQ(out, prefix);
    }
  }
}

std::string ConfigName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "Columnar" : "Row";
}

INSTANTIATE_TEST_SUITE_P(Configs, WirePlanTest, ::testing::Bool(),
                         ConfigName);

// ------------------------------------- The one answer decoder, mutated

/// Decodes `body` with the sql decoder and through the net wrapper. Both
/// must agree; a decoded answer must be well formed and re-encode to the
/// bytes it was read from (but for used_index, which any nonzero byte
/// sets). A wre::Error other than the expected type, or any other
/// exception, escapes and fails the test. Returns whether it decoded.
bool decodes(const Bytes& body) {
  size_t pos = 0;
  std::optional<ResultSet> rs;
  try {
    rs = ResultSet::wire_decode(body, pos);
  } catch (const SqlError&) {
  }
  net::WireReader r(body);
  bool net_decoded = true;
  try {
    (void)net::decode_result_set(r);
  } catch (const NetworkError&) {
    net_decoded = false;
  }
  EXPECT_EQ(net_decoded, rs.has_value()) << to_hex(body);
  if (!rs) return false;
  for (const Row& row : rs->rows) EXPECT_EQ(row.size(), rs->columns.size());
  Bytes again;
  rs->wire_encode(again);
  EXPECT_EQ(again.size(), pos);
  if (again.size() == pos && pos > 0) {
    EXPECT_TRUE(std::equal(again.begin(), again.end() - 1, body.begin()))
        << to_hex(body);
  }
  return true;
}

TEST(ResultMutation, MutatedAnswersDecodeOrFailTyped) {
  TempDir dir("wre_result_mutation");
  Database db(dir.str());
  db.execute(
      "CREATE TABLE m (id INTEGER PRIMARY KEY, tag INTEGER, name TEXT, "
      "payload BLOB, zip INTEGER)");
  db.execute("CREATE INDEX i_tag ON m (tag)");
  std::vector<Row> rows;
  for (int64_t id = 0; id < 30; ++id) {
    rows.push_back({Value::int64(id), Value::int64(id % 4),
                    id % 7 == 0 ? Value::null()
                                : Value::text("n" + std::to_string(id % 3)),
                    Value::blob(Bytes(static_cast<size_t>(id), 0x5a)),
                    Value::int64(10000 + id % 2)});
  }
  db.insert_batch("m", rows);

  std::mt19937_64 rng(20190624);
  auto below = [&](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<uint64_t>(
        0, n - 1)(rng));
  };
  size_t decoded = 0;
  size_t failed = 0;
  for (const std::string sql : {
           "SELECT id FROM m WHERE tag IN (1, 2)",         // index-only
           "SELECT * FROM m WHERE tag IN (1, 2, 3)",       // fetch
           "SELECT name, payload FROM m WHERE zip = 10001",  // scan
           "SELECT COUNT(*) FROM m WHERE tag = 1",
           "EXPLAIN SELECT * FROM m WHERE tag = 1",
       }) {
    SCOPED_TRACE(sql);
    Bytes body;
    db.execute_select_wire(std::get<SelectStmt>(parse_statement(sql)),
                           &body);
    ASSERT_TRUE(decodes(body));
    size_t pos = 0;
    const ResultSet valid = ResultSet::wire_decode(body, pos);
    // The envelope: the column names and the row count ahead of the rows,
    // and the counter trailer after them.
    size_t head = 8;
    for (const std::string& name : valid.columns) head += 4 + name.size();
    ASSERT_LE(head + kResultTrailerBytes, body.size());
    auto envelope_byte = [&] {
      const size_t k = below(head + kResultTrailerBytes);
      return k < head ? k : body.size() - kResultTrailerBytes + (k - head);
    };
    for (int i = 0; i < 600; ++i) {
      Bytes mutant = body;
      switch (below(3)) {
        case 0: {  // flip 1-4 bits; half the mutants only in the envelope
          const bool in_envelope = below(2) == 0;
          for (size_t flips = 1 + below(4); flips > 0; --flips) {
            const size_t at =
                in_envelope ? envelope_byte() : below(body.size());
            mutant[at] ^= static_cast<uint8_t>(1u << below(8));
          }
          break;
        }
        case 1:  // truncate
          mutant.resize(below(body.size()));
          break;
        default:  // append 1-64 bytes
          for (size_t n = 1 + below(64); n > 0; --n) {
            mutant.push_back(static_cast<uint8_t>(below(256)));
          }
          break;
      }
      (decodes(mutant) ? decoded : failed)++;
    }
  }
  // Both verdicts occur, so the sweep reaches past the first check.
  EXPECT_GT(decoded, 500u);
  EXPECT_GT(failed, 500u);
}

// ----------------------------------------------- Record codec and walker

Schema sample_schema() {
  return Schema({{"id", ValueType::kInt64, true},
                 {"name", ValueType::kText, false},
                 {"note", ValueType::kText, false},
                 {"payload", ValueType::kBlob, false},
                 {"zip", ValueType::kInt64, false}});
}

std::vector<Row> sample_rows() {
  return {
      {Value::int64(7), Value::text("ab"), Value::null(),
       Value::blob({0xff}), Value::int64(-1)},
      {Value::int64(-3), Value::text(""), Value::text("x y"), Value::null(),
       Value::null()},
      {Value::int64(1), Value::null(), Value::null(),
       Value::blob(Bytes(40, 0x01)), Value::int64(10001)},
  };
}

TEST(RecordCodec, RecordIsTheWireRowBodyAndTheFormatIsPinned) {
  const Schema schema = sample_schema();
  for (const Row& row : sample_rows()) {
    Bytes cells;
    for (const Value& v : row) v.wire_encode(cells);
    EXPECT_EQ(schema.encode_row(row), cells);
  }
  // The on-disk layout itself: type byte, then LE64 / LE32 length + bytes.
  EXPECT_EQ(to_hex(schema.encode_row(sample_rows()[0])),
            "010700000000000000"
            "02020000006162"
            "00"
            "0301000000ff"
            "01ffffffffffffffff");
}

/// Runs decode_row and split_record on `record`; they must both throw
/// SqlError, or both accept with identical cells that tile the record.
void expect_walker_agrees(const Schema& schema, const Bytes& record) {
  std::optional<Row> decoded;
  try {
    decoded = schema.decode_row(record);
  } catch (const SqlError&) {
  }
  std::vector<CellView> cells(schema.column_count());
  bool walked = true;
  try {
    schema.split_record(record, cells.data());
  } catch (const SqlError&) {
    walked = false;
  }
  ASSERT_EQ(walked, decoded.has_value()) << to_hex(record);
  if (!walked) return;
  const uint8_t* at = record.data();
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].begin, at);
    at += cells[i].size;
    EXPECT_EQ(cells[i].value(), (*decoded)[i]) << to_hex(record);
  }
  EXPECT_EQ(at, record.data() + record.size());
}

TEST(RecordCodec, WalkerAndDecodeRowAgreeOnEveryMalformedRecord) {
  const Schema schema = sample_schema();
  size_t variants = 0;
  for (const Row& row : sample_rows()) {
    const Bytes record = schema.encode_row(row);
    expect_walker_agrees(schema, record);
    // Every truncation, and trailing bytes.
    for (size_t n = 0; n < record.size(); ++n, ++variants) {
      expect_walker_agrees(schema, Bytes(record.begin(), record.begin() + n));
    }
    Bytes longer = record;
    longer.push_back(0);
    expect_walker_agrees(schema, longer);
    // Every value of every type byte; every bit flip of every length byte.
    size_t pos = 0;
    while (pos < record.size()) {
      const CellView cell = read_cell(record, pos);
      const size_t at = static_cast<size_t>(cell.begin - record.data());
      for (int b = 0; b < 256; ++b, ++variants) {
        Bytes mutated = record;
        mutated[at] = static_cast<uint8_t>(b);
        expect_walker_agrees(schema, mutated);
      }
      if (cell.type() == ValueType::kText || cell.type() == ValueType::kBlob) {
        for (size_t k = 1; k <= 4; ++k) {
          for (int bit = 0; bit < 8; ++bit, ++variants) {
            Bytes mutated = record;
            mutated[at + k] ^= static_cast<uint8_t>(1u << bit);
            expect_walker_agrees(schema, mutated);
          }
        }
      }
    }
  }
  EXPECT_GT(variants, 1000u);
}

TEST(RecordCodec, CellEqualityMatchesValueEquality) {
  const std::vector<Value> values = {
      Value::null(),        Value::int64(0),        Value::int64(3),
      Value::int64(-3),     Value::text(""),        Value::text("3"),
      Value::text("ab"),    Value::blob({}),        Value::blob({'a', 'b'}),
      Value::blob({'3'}),
  };
  for (const Value& a : values) {
    Bytes encoded;
    a.wire_encode(encoded);
    size_t pos = 0;
    const CellView cell = read_cell(encoded, pos);
    EXPECT_EQ(cell.value(), a);
    for (const Value& b : values) {
      EXPECT_EQ(cell.sql_equals(b), a.sql_equals(b))
          << a.to_sql_literal() << " vs " << b.to_sql_literal();
    }
  }
}

TEST(RecordCodec, ValueOrderDedupesLikeLiteralOrder) {
  std::mt19937_64 rng(7);
  std::vector<Value> values;
  for (int i = 0; i < 400; ++i) {
    const int64_t n = static_cast<int64_t>(rng() % 20) - 5;
    switch (rng() % 4) {
      case 0: values.push_back(Value::int64(n)); break;
      case 1: values.push_back(Value::text(std::to_string(n))); break;
      case 2: values.push_back(Value::blob(Bytes(rng() % 3, 0x41))); break;
      default: values.push_back(Value::null()); break;
    }
  }
  std::vector<Value> by_order = values;
  std::sort(by_order.begin(), by_order.end());
  by_order.erase(std::unique(by_order.begin(), by_order.end()),
                 by_order.end());
  std::vector<Value> by_literal = values;
  std::sort(by_literal.begin(), by_literal.end(),
            [](const Value& a, const Value& b) {
              return a.to_sql_literal() < b.to_sql_literal();
            });
  by_literal.erase(std::unique(by_literal.begin(), by_literal.end()),
                   by_literal.end());
  std::sort(by_literal.begin(), by_literal.end());
  EXPECT_EQ(by_order, by_literal);
}

}  // namespace
}  // namespace wre::sql
