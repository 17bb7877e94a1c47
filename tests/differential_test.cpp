// Differential harness: one oracle, one configuration matrix (DESIGN.md
// §5.4, §5.9). Each seed's operation sequence runs against a plaintext
// oracle and eight cells: in process (LocalTransport) or over TCP
// (net::Server + RemoteConnection), columnar store off or on, durable (WAL
// without fsync) or not. Answers must match the oracle (bucketized
// select_ids may return a superset), and all cells must return identical
// results, server order included: every insert_bulk writes the same bytes
// (one thread, a fixed stream nonce, start_index = the oracle's row count).
// A failing sequence is shrunk greedily and printed with its seed. With
// WRE_SERVER_PORT set, that wre_server process joins as a ninth cell
// (scripts/server_smoke.sh); checkpoint and clear_cache skip it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/sql/database.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace wre {
namespace {

using core::SaltMethod;
using sql::Row;
using sql::Value;

// Logical columns: e and f are WRE-encrypted, r is range-encrypted over
// [0, kDomainHi], a and b are plaintext. f, r, a and b hold NULLs too.
enum Col : size_t { kId, kE, kF, kR, kA, kB };
const char* const kColNames[] = {"id", "e", "f", "r", "a", "b"};
const std::vector<std::string> kEVals = {"ann", "bob", "cy", "dee", "eve"};
const std::vector<std::string> kFVals = {"oslo", "lima", "pune"};
const std::vector<std::string> kAVals = {"red", "green", "blue", "gray"};
constexpr int64_t kDomainHi = 255;
const uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
const uint32_t kBuckets[] = {3, 16, 64};
const std::pair<SaltMethod, double> kMethods[] = {
    {SaltMethod::kDeterministic, 0}, {SaltMethod::kFixed, 8},
    {SaltMethod::kProportional, 20}, {SaltMethod::kPoisson, 16},
    {SaltMethod::kBucketizedPoisson, 6}};

// Per seed: a salt method on e, the next one on f, and a bucket count.
struct Config {
  core::EncryptedColumnSpec spec(size_t col) const {
    const auto& [method, parameter] = kMethods[(seed + col - kE) % 5];
    return {kColNames[col], method, parameter};
  }
  bool bucketized(size_t col) const {
    return (col == kE || col == kF) &&
           spec(col).method == SaltMethod::kBucketizedPoisson;
  }
  uint64_t seed;
  uint32_t buckets;
};

// kIds is select_ids or, with several values, select_ids_in; kStar is
// select_star or, with several terms, select_star_and.
enum class Kind {
  kInsert, kIds, kStar, kRange, kSql, kIndex, kScan, kCheckpoint,
  kClearCache, kRestart
};
const char* const kKindNames[] = {
    "insert_bulk", "select_ids", "select_star", "select_star_range", "sql",
    "create_index", "scan", "checkpoint", "clear_cache", "restart"};
const int kKindWeights[] = {3, 3, 4, 3, 4, 2, 1, 1, 1, 1};

// `column IN (values)`; one value is an equality.
struct Leaf {
  size_t column;
  std::vector<Value> values;
};

struct Op {
  Kind kind = Kind::kInsert;
  std::vector<Row> rows;     // kInsert; ids are assigned when it runs
  std::vector<Leaf> leaves;  // query terms, kSql predicate, kIndex column
  bool any = false;          // kSql: OR the leaves instead of AND
  bool star = false;         // kSql: SELECT * instead of SELECT id, a, b
  std::optional<size_t> limit;
  int64_t lo = 0, hi = 0;    // kRange
};

std::string literal(const Value& v) { return v.to_sql_literal(); }

std::string where_text(const std::vector<Leaf>& leaves, bool any) {
  std::string sql;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const auto& values = leaves[i].values;
    sql += std::string(i ? (any ? " OR " : " AND ") : "") +
           kColNames[leaves[i].column] + (values.size() > 1 ? " IN (" : " = ");
    for (size_t j = 0; j < values.size(); ++j) {
      sql += (j ? ", " : "") + literal(values[j]);
    }
    if (values.size() > 1) sql += ")";
  }
  return sql;
}

std::string sql_text(const Op& op, const std::string& table) {
  std::string sql = (op.star ? "SELECT * FROM " : "SELECT id, a, b FROM ") +
                    table;
  if (!op.leaves.empty()) sql += " WHERE " + where_text(op.leaves, op.any);
  if (op.limit) sql += " LIMIT " + std::to_string(*op.limit);
  return sql;
}

std::string describe(const Op& op) {
  std::ostringstream s;
  s << kKindNames[static_cast<int>(op.kind)] << " ";
  if (op.kind == Kind::kInsert) s << op.rows.size() << " rows (e, f, r, a, b)";
  for (const Row& r : op.rows) {
    s << "\n      (" << literal(r[kE]) << ", " << literal(r[kF]) << ", "
      << literal(r[kR]) << ", " << literal(r[kA]) << ", " << literal(r[kB])
      << ")";
  }
  if (op.kind == Kind::kRange) s << "r in [" << op.lo << ", " << op.hi << "]";
  if (op.kind == Kind::kSql) s << sql_text(op, "t");
  if (op.kind == Kind::kIds || op.kind == Kind::kStar) {
    s << where_text(op.leaves, false);
  }
  if (op.kind == Kind::kIndex) s << kColNames[op.leaves[0].column];
  return s.str();
}

// Whether the oracle row `r` answers `op` (queries never name NULL, so
// plain equality is SQL's; no leaves select every row).
bool selects(const Op& op, const Row& r) {
  if (op.kind == Kind::kRange) {
    return !r[kR].is_null() && r[kR].as_int64() >= op.lo &&
           r[kR].as_int64() <= op.hi;
  }
  auto match = [&](const Leaf& l) {
    return std::find(l.values.begin(), l.values.end(), r[l.column]) !=
           l.values.end();
  };
  return op.any ? std::any_of(op.leaves.begin(), op.leaves.end(), match)
                : std::all_of(op.leaves.begin(), op.leaves.end(), match);
}

std::vector<Op> generate(uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull);
  auto below = [&](uint64_t n) {
    return static_cast<int64_t>(rng.next_below(n));
  };
  auto pick = [&](const std::vector<std::string>& vals) {
    return Value::text(vals[static_cast<size_t>(below(vals.size()))]);
  };
  auto or_null = [&](int one_in, Value v) {
    return below(one_in) == 0 ? Value::null() : v;
  };
  // Range ends often land on stored values, where off-by-one trims show.
  std::vector<int64_t> stored = {0};
  auto point = [&] {
    return below(2) ? stored[static_cast<size_t>(below(stored.size()))]
                    : below(300) - 20;
  };
  auto plain_leaf = [&](bool single) {  // on a, b or id
    const int64_t c = below(3);
    Leaf l{c == 0 ? kA : c == 1 ? kB : kId,
           {c == 0 ? pick(kAVals) : Value::int64(below(c == 1 ? 6 : 200))}};
    if (!single && c != 2 && below(3) == 0) {
      l.values.push_back(c == 0 ? pick(kAVals) : Value::int64(4));
    }
    return l;
  };

  std::vector<Op> ops(static_cast<size_t>(40 + below(20)));
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    int64_t w = i == 0 ? 0 : below(23);  // op 0 loads data
    int k = 0;
    while (w >= kKindWeights[k]) w -= kKindWeights[k++];
    switch (op.kind = static_cast<Kind>(k)) {
      case Kind::kInsert:
        for (int64_t n = 1 + below(i == 0 ? 120 : 50); n > 0; --n) {
          Value r = or_null(10, Value::int64(below(kDomainHi + 1)));
          if (!r.is_null()) stored.push_back(r.as_int64());
          op.rows.push_back({Value::null(), pick(kEVals),
                             or_null(10, pick(kFVals)), r,
                             or_null(8, pick(kAVals)),
                             or_null(5, Value::int64(below(6)))});
        }
        break;
      case Kind::kIds:
        op.leaves = {{kE, {pick(kEVals)}}};
        if (below(2)) op.leaves[0].values.push_back(pick(kEVals));
        break;
      case Kind::kStar:  // a conjunction may add f and a plaintext term
        op.leaves = {below(2) ? Leaf{kE, {pick(kEVals)}}
                              : Leaf{kF, {pick(kFVals)}}};
        if (op.leaves[0].column == kE && below(2)) {
          op.leaves.push_back({kF, {pick(kFVals)}});
        }
        if (below(3) == 0) op.leaves.push_back(plain_leaf(true));
        break;
      case Kind::kRange: {  // degenerate, full, inverted, out of domain
        const int64_t shape = below(5);
        op.lo = shape == 1 ? 0 : point();
        op.hi = shape == 0 ? op.lo : shape == 1 ? kDomainHi : point();
        break;
      }
      case Kind::kSql: {
        const int64_t shape = below(4);  // no WHERE, one leaf, AND, OR
        for (int64_t n = std::min<int64_t>(shape, 2); n > 0; --n) {
          op.leaves.push_back(plain_leaf(false));
        }
        op.any = shape == 3;
        op.star = below(4) == 0;
        if (below(3) == 0) op.limit = static_cast<size_t>(below(40));
        break;
      }
      case Kind::kIndex:
        op.leaves = {{below(2) ? kA : kB, {}}};
        break;
      default:
        break;
    }
  }
  return ops;
}

// One server configuration and the client connected to it.
struct Cell {
  ~Cell() { close(); }

  void open() {
    uint16_t port = external_port;
    if (!external_port) {
      db = std::make_unique<sql::Database>(
          dir.str(), sql::DatabaseOptions{.durability = durable,
                                          .wal_fsync = false,
                                          .columnar = columnar});
    }
    if (remote && !external_port) {
      net::ServerOptions options;
      options.worker_threads = 1;
      server = std::make_unique<net::Server>(*db, options);
      server->start();
      port = server->port();
    }
    if (remote) {
      transport = std::make_unique<net::RemoteConnection>("127.0.0.1", port);
    } else {
      transport = std::make_unique<core::LocalTransport>(*db);
    }
    conn = std::make_unique<core::EncryptedConnection>(*transport,
                                                       Bytes(32, 0x3c));
  }
  void close() {
    conn.reset();
    transport.reset();
    if (server) server->stop();
    server.reset();
    db.reset();
  }
  // An in-process durable database commits each write, as wre_server does.
  void commit() {
    if (db && durable && !remote) db->commit();
  }
  std::string name() const {
    return external_port ? "external wre_server"
                         : std::string(remote ? "remote" : "local") +
                               (columnar ? "+columnar" : "") +
                               (durable ? "+durable" : "");
  }

  bool remote, columnar, durable;
  uint16_t external_port = 0;  // nonzero: a wre_server process, no `db`
  wre::testing::TempDir dir{"wre_diff"};
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<core::DbTransport> transport;
  std::unique_ptr<core::EncryptedConnection> conn;
};

// What a cell returned; kSql and kScan rows go to q.rows.
struct Outcome {
  std::string error;  // what was thrown, empty on success
  core::EncryptedQueryResult q;
};

// Every field of an outcome, ids and rows in server order.
std::string render(const Outcome& o) {
  if (!o.error.empty()) return "throws " + o.error;
  std::ostringstream s;
  s << "ids [";
  for (int64_t id : o.q.ids) s << id << " ";
  s << "] rows [";
  for (const Row& row : o.q.rows) {
    for (const Value& v : row) s << literal(v) << " ";
    s << "; ";
  }
  s << "] server_rows " << o.q.server_rows_returned << " fp "
    << o.q.false_positives << " tags " << o.q.tags_in_query;
  return s.str() + " sql " + o.q.sql;
}

Outcome execute(Cell& cell, const Op& op, const std::string& table,
                size_t next_id) {
  Outcome out;
  auto& q = out.q;
  auto& conn = *cell.conn;
  const std::string column =
      op.leaves.empty() ? "" : kColNames[op.leaves[0].column];
  std::vector<std::string> terms;  // every TEXT value of the leaves
  std::vector<core::EncryptedConnection::Conjunct> conjuncts;
  for (const Leaf& l : op.leaves) {
    for (const Value& v : l.values) {
      if (v.type() == sql::ValueType::kText) terms.push_back(v.as_text());
    }
    if (!l.values.empty()) conjuncts.push_back({kColNames[l.column], l.values[0]});
  }
  try {
    switch (op.kind) {
      case Kind::kInsert: {
        const core::IngestOptions options{.threads = 1,
                                          .start_index = next_id,
                                          .stream_nonce = Bytes(16, 0xd1)};
        std::vector<Row> rows = op.rows;
        for (Row& r : rows) r[kId] = Value::int64(static_cast<int64_t>(next_id++));
        conn.insert_bulk(table, rows, options);
        cell.commit();
        break;
      }
      case Kind::kIds:
        q = terms.size() == 1 ? conn.select_ids(table, column, terms[0])
                              : conn.select_ids_in(table, column, terms);
        break;
      case Kind::kStar:
        q = conjuncts.size() == 1 ? conn.select_star(table, column, terms[0])
                                  : conn.select_star_and(table, conjuncts);
        break;
      case Kind::kRange:
        q = conn.select_star_range(table, "r", op.lo, op.hi);
        break;
      case Kind::kSql:
        q.rows = cell.transport->execute(sql_text(op, table)).rows;
        break;
      case Kind::kIndex:
        cell.transport->execute("CREATE INDEX i_" + column + " ON " + table +
                                " (" + column + ")");
        cell.commit();
        break;
      case Kind::kScan:
        cell.transport->scan(table, [&](const Row& r) { q.rows.push_back(r); });
        break;
      case Kind::kCheckpoint:
        if (cell.db) cell.db->checkpoint();
        break;
      case Kind::kClearCache:
        if (cell.db) cell.db->clear_cache();
        break;
      case Kind::kRestart:
        cell.close();
        cell.open();
        cell.conn->open_table(table);
        break;
    }
  } catch (const SqlError&) {
    return {"SqlError", {}};  // the class must cross the wire intact
  } catch (const std::exception& e) {
    return {std::string("unexpected ") + e.what(), {}};
  }
  return out;
}

// Checks one outcome against the oracle's `rows`: "" when it is right.
std::string check(const Config& cfg, const Op& op, const Outcome& out,
                  const std::vector<Row>& rows,
                  const std::set<size_t>& indexed) {
  // A second CREATE INDEX on a column must fail with SqlError everywhere.
  const bool must_throw =
      op.kind == Kind::kIndex && indexed.contains(op.leaves[0].column);
  if (out.error != (must_throw ? "SqlError" : "")) return "wrong outcome";
  std::vector<Row> want;
  std::set<int64_t> want_ids;
  for (const Row& r : rows) {
    if (!selects(op, r)) continue;
    want.push_back(r);
    want_ids.insert(r[kId].as_int64());
  }
  const auto& q = out.q;
  if (op.kind == Kind::kIds) {
    const std::set<int64_t> got(q.ids.begin(), q.ids.end());
    const bool superset = std::includes(got.begin(), got.end(),
                                        want_ids.begin(), want_ids.end());
    if (got.size() != q.ids.size()) return "duplicate ids";
    if (got == want_ids || (cfg.bucketized(kE) && superset)) return "";
    return "ids differ";
  }
  if (op.kind == Kind::kStar || op.kind == Kind::kRange) {
    std::vector<Row> got = q.rows;
    std::sort(got.begin(), got.end(), [](const Row& x, const Row& y) {
      return x[kId].as_int64() < y[kId].as_int64();
    });
    if (got != want) return "rows differ";
    if (q.server_rows_returned != got.size() + q.false_positives) {
      return "server rows != rows + false positives";
    }
    bool may_overshoot = op.kind == Kind::kRange;
    for (const Leaf& l : op.leaves) may_overshoot |= cfg.bucketized(l.column);
    if (!may_overshoot && q.false_positives > 0) return "false positives";
    if (op.kind == Kind::kStar) return "";
    // One tag per bucket that meets [lo, hi]; the server returns every row
    // of those buckets.
    const core::RangeBucketizer buckets(0, kDomainHi, cfg.buckets);
    const auto [lo, hi] = buckets.buckets_for_range(op.lo, op.hi);
    uint64_t served = 0;
    for (const Row& r : rows) {
      if (r[kR].is_null()) continue;
      const uint32_t b = buckets.bucket_of(r[kR].as_int64());
      served += b >= lo && b <= hi;
    }
    const bool right = q.tags_in_query == (lo <= hi ? hi - lo + 1 : 0) &&
                       q.server_rows_returned == served;
    return right ? "" : "range buckets differ";
  }
  if (op.kind != Kind::kSql && op.kind != Kind::kScan) return "";
  // Answers are (id, a, b) or physical rows; either way id comes first and
  // a and b last, as in the oracle's logical rows.
  auto key = [](const Row& r) {
    return literal(r[0]) + "|" + literal(r[r.size() - 2]) + "|" +
           literal(r[r.size() - 1]);
  };
  std::multiset<std::string> expect, got;
  for (const Row& r : want) expect.insert(key(r));
  for (const Row& r : q.rows) got.insert(key(r));
  // LIMIT n without ORDER BY: any n of the matching rows.
  const bool limited =
      op.limit && got.size() == std::min(*op.limit, expect.size()) &&
      std::includes(expect.begin(), expect.end(), got.begin(), got.end());
  return got == expect || limited ? "" : "rows differ";
}

// Where a run failed: the op's index in the sequence, and why.
using Failure = std::pair<size_t, std::string>;

// Runs `ops` on fresh cells: the first failure, if any.
std::optional<Failure> run(const Config& cfg, const std::vector<Op>& ops) {
  static int runs = 0;  // a fresh table per run on a shared external server
  const std::string table = "d" + std::to_string(cfg.seed) + "_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(++runs);
  std::vector<std::unique_ptr<Cell>> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back(std::make_unique<Cell>(i & 4, i & 2, i & 1));
  }
  if (const char* port = std::getenv("WRE_SERVER_PORT")) {
    cells.push_back(std::make_unique<Cell>(
        true, false, false, static_cast<uint16_t>(std::stoi(port))));
  }
  sql::Schema logical(
      {{"id", sql::ValueType::kInt64, true}, {"e", sql::ValueType::kText},
       {"f", sql::ValueType::kText}, {"r", sql::ValueType::kInt64},
       {"a", sql::ValueType::kText}, {"b", sql::ValueType::kInt64}});
  std::map<std::string, core::PlaintextDistribution> dists;
  dists.emplace("e", core::PlaintextDistribution::from_probabilities(
      {{"ann", .4}, {"bob", .25}, {"cy", .15}, {"dee", .12}, {"eve", .08}}));
  dists.emplace("f", core::PlaintextDistribution::from_probabilities(
      {{"oslo", .5}, {"lima", .3}, {"pune", .2}}));
  for (auto& cell : cells) {
    cell->open();
    cell->conn->create_table(table, logical, {cfg.spec(kE), cfg.spec(kF)},
                             dists, {{"r", 0, kDomainHi, cfg.buckets}});
    cell->commit();
  }

  std::vector<Row> oracle;
  std::set<size_t> indexed;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    std::vector<Outcome> outs;
    std::vector<std::string> seen;
    for (auto& cell : cells) {
      outs.push_back(execute(*cell, op, table, oracle.size()));
      seen.push_back(render(outs.back()));
    }
    for (size_t c = 1; c < cells.size(); ++c) {
      if (seen[c] == seen[0]) continue;
      const auto at = std::mismatch(seen[0].begin(), seen[0].end(),
                                    seen[c].begin(), seen[c].end());
      const auto from = static_cast<size_t>(
          std::max<ptrdiff_t>(at.first - seen[0].begin() - 60, 0));
      return Failure{i, cells[c]->name() + " differs from " +
                            cells[0]->name() + ":\n    " +
                            seen[0].substr(from, 160) + "\n    " +
                            seen[c].substr(from, 160)};
    }
    // Every cell agrees, so checking the first checks them all.
    const std::string bad = check(cfg, op, outs[0], oracle, indexed);
    if (!bad.empty()) return Failure{i, bad + ": " + seen[0].substr(0, 300)};
    for (Row r : op.rows) {
      r[kId] = Value::int64(static_cast<int64_t>(oracle.size()));
      oracle.push_back(std::move(r));
    }
    if (op.kind == Kind::kIndex) indexed.insert(op.leaves[0].column);
  }
  return std::nullopt;
}

// Greedy shrinking while the run still fails: ops after the failing one
// go, then each op in turn, then the front or back half of an insert's
// rows, again and again.
std::vector<Op> shrink(const Config& cfg, std::vector<Op> ops, Failure& f) {
  int budget = 400;  // runs
  auto still_fails = [&](std::vector<Op> candidate) {
    auto fail = --budget < 0 ? std::nullopt : run(cfg, candidate);
    if (!fail) return false;
    f = *fail;
    candidate.resize(f.first + 1);
    ops = std::move(candidate);
    return true;
  };
  ops.resize(f.first + 1);
  for (bool progress = true; progress && budget > 0;) {
    progress = false;
    for (size_t i = ops.size(); i-- > 0;) {
      if (i >= ops.size()) continue;
      auto candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      progress |= still_fails(std::move(candidate));
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      while (i < ops.size() && ops[i].rows.size() > 1) {
        const auto half = static_cast<ptrdiff_t>(ops[i].rows.size() / 2);
        auto front = ops, back = ops;
        front[i].rows.resize(static_cast<size_t>(half));
        back[i].rows.erase(back[i].rows.begin(), back[i].rows.begin() + half);
        if (!still_fails(std::move(front)) && !still_fails(std::move(back))) {
          break;
        }
        progress = true;
      }
    }
  }
  return ops;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EveryCellMatchesTheOracle) {
  const Config cfg{GetParam(), kBuckets[GetParam() % 3]};
  std::vector<Op> ops = generate(cfg.seed);
  auto failure = run(cfg, ops);
  if (!failure) return;
  ops = shrink(cfg, std::move(ops), *failure);
  std::ostringstream s;
  s << "seed " << cfg.seed << ": op #" << failure->first << " failed: "
    << failure->second << "\nminimal sequence (" << ops.size() << " ops):";
  for (size_t i = 0; i < ops.size(); ++i) {
    s << "\n  #" << i << " " << describe(ops[i]);
  }
  ADD_FAILURE() << s.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::ValuesIn(kSeeds));

}  // namespace
}  // namespace wre
