// Tag-space sharding: routing-rule unit tests, pipelined-channel
// semantics, and scatter-gather parity of a 3-shard wre_server fleet
// against a single local database — including a shard dying mid-workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/net/channel.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/net/shard.h"
#include "src/net/wire.h"
#include "src/sql/database.h"
#include "tests/test_util.h"

using namespace wre;
using namespace wre::net;
using wre::testing::TempDir;

namespace {

sql::Schema tagged_schema() {
  return sql::Schema({{"id", sql::ValueType::kInt64, /*primary_key=*/true},
                      {"a_tag", sql::ValueType::kInt64, false},
                      {"b_tag", sql::ValueType::kInt64, false},
                      {"c_enc", sql::ValueType::kBlob, false}});
}

sql::Row tagged_row(int64_t id) {
  return {sql::Value::int64(id), sql::Value::tag(static_cast<uint64_t>(id % 17)),
          sql::Value::tag(static_cast<uint64_t>(id / 10)),
          sql::Value::blob(Bytes{static_cast<uint8_t>(id & 0xff)})};
}

std::vector<sql::Row> sorted_by_id(std::vector<sql::Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const sql::Row& a, const sql::Row& b) {
              return a.at(0).as_int64() < b.at(0).as_int64();
            });
  return rows;
}

// ---------------------------------------------------------------------------
// Pure routing rules.

TEST(ShardRouting, SingleShardMapsEverythingToZero) {
  for (uint64_t t : {0ull, 1ull, 0xffffffffffffffffull}) {
    EXPECT_EQ(shard_for_tag(t, 1), 0u);
  }
}

TEST(ShardRouting, SplitmixSpreadsSequentialTags) {
  // Bucketized range tags and benchmark ids are sequential integers; the
  // finalizer must still spread them evenly (a bare modulo would stripe).
  constexpr uint32_t kShards = 3;
  constexpr uint64_t kTags = 3000;
  std::vector<uint64_t> counts(kShards, 0);
  for (uint64_t t = 0; t < kTags; ++t) ++counts[shard_for_tag(t, kShards)];
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kTags / kShards - 200) << "shard " << s;
    EXPECT_LT(counts[s], kTags / kShards + 200) << "shard " << s;
  }
}

TEST(ShardRouting, ShardForTagIsDeterministic) {
  for (uint64_t t = 0; t < 64; ++t) {
    EXPECT_EQ(shard_for_tag(t, 5), shard_for_tag(t, 5));
  }
}

TEST(ShardRouting, ParseEndpointsAcceptsOrderedList) {
  auto eps = parse_endpoints("127.0.0.1:7433,10.0.0.2:7434,db.internal:80");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 7433);
  EXPECT_EQ(eps[1].host, "10.0.0.2");
  EXPECT_EQ(eps[1].port, 7434);
  EXPECT_EQ(eps[2].host, "db.internal");
  EXPECT_EQ(eps[2].port, 80);
}

TEST(ShardRouting, ParseEndpointsRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "hostonly", "host:", ":7433", "a:1,,b:2", "a:1,b:2,", "a:99999",
        "a:12x4"}) {
    EXPECT_THROW(parse_endpoints(bad), NetworkError) << bad;
  }
}

TEST(ShardRouting, ShardKeyIndexFindsFirstTagColumn) {
  EXPECT_EQ(shard_key_index(tagged_schema()), 1u);
  // Tag-less tables (the manifest) have no shard key and live on shard 0.
  sql::Schema manifest({{"id", sql::ValueType::kInt64, true},
                        {"blob", sql::ValueType::kBlob, false}});
  EXPECT_FALSE(shard_key_index(manifest).has_value());
}

// ---------------------------------------------------------------------------
// Pipelined channel semantics against a live server.

TEST(PipelinedChannel, OutOfOrderAwaitParksEarlierResponses) {
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  {
    PipelinedChannel ch(ShardEndpoint{"127.0.0.1", server.port()},
                        kDefaultMaxFrameBytes, 5000);
    RequestExt ext;
    uint64_t t0 = ch.submit(Opcode::kPing, {}, ext);
    uint64_t t1 = ch.submit(Opcode::kPing, {}, ext);
    uint64_t t2 = ch.submit(Opcode::kPing, {}, ext);
    EXPECT_EQ(ch.in_flight(), 3u);
    // Awaiting the newest ticket first forces reads past t0/t1, which must
    // be parked and returned later — not lost, not reordered.
    EXPECT_EQ(ch.await(t2).opcode, Opcode::kOkPong);
    EXPECT_EQ(ch.await(t0).opcode, Opcode::kOkPong);
    EXPECT_EQ(ch.await(t1).opcode, Opcode::kOkPong);
    EXPECT_FALSE(ch.dead());
    // A ticket can be redeemed exactly once.
    EXPECT_THROW(ch.await(t1), NetworkError);
  }
  server.stop();
}

TEST(PipelinedChannel, TransportFailurePoisonsEveryLaterCall) {
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  PipelinedChannel ch(ShardEndpoint{"127.0.0.1", server.port()},
                      kDefaultMaxFrameBytes, /*recv_timeout_ms=*/200);
  RequestExt ext;
  ch.submit(Opcode::kPing, {}, ext);
  uint64_t never = ch.submit(Opcode::kPing, {}, ext);
  server.stop();  // drain answers the pipeline, then closes
  // Whatever the close/drain race yields, once the channel reports a
  // transport failure every later call fails fast with the same reason.
  try {
    ch.await(never, 500);
    ch.await(ch.submit(Opcode::kPing, {}, ext), 500);
    FAIL() << "channel survived server shutdown indefinitely";
  } catch (const NetworkError&) {
  }
  EXPECT_TRUE(ch.dead());
  EXPECT_THROW(ch.submit(Opcode::kPing, {}, ext), NetworkError);
}

// ---------------------------------------------------------------------------
// Three-shard fleet fixture.

class ShardFleetTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 3;

  ShardFleetTest() {
    for (uint32_t s = 0; s < kShards; ++s) {
      dirs_.push_back(std::make_unique<TempDir>());
      dbs_.push_back(std::make_unique<sql::Database>(dirs_[s]->str()));
      ServerOptions options;
      options.worker_threads = 2;
      options.shard_index = s;
      options.shard_count = kShards;
      servers_.push_back(std::make_unique<Server>(*dbs_[s], options));
      servers_[s]->start();
    }
  }

  ~ShardFleetTest() override {
    for (auto& s : servers_) {
      if (s) s->stop();
    }
  }

  std::vector<ShardEndpoint> endpoints() const {
    std::vector<ShardEndpoint> eps;
    for (const auto& s : servers_) {
      eps.push_back(ShardEndpoint{"127.0.0.1", s->port()});
    }
    return eps;
  }

  RemoteConnection client(RemoteOptions options = {}) {
    return RemoteConnection(endpoints(), options);
  }

  std::vector<std::unique_ptr<TempDir>> dirs_;
  std::vector<std::unique_ptr<sql::Database>> dbs_;
  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(ShardFleetTest, ScatterGatherMatchesSingleLocalDatabase) {
  RemoteConnection remote = client();
  remote.create_table("t", tagged_schema());
  remote.create_index("t", "a_tag");
  remote.create_index("t", "b_tag");

  // The reference: the same rows in one unsharded local database.
  TempDir local_dir;
  sql::Database local(local_dir.str());
  local.create_table("t", tagged_schema());
  local.create_index("t", "a_tag");
  local.create_index("t", "b_tag");

  std::vector<sql::Row> rows;
  for (int64_t id = 0; id < 400; ++id) rows.push_back(tagged_row(id));
  std::vector<int64_t> ids = remote.insert_batch("t", rows);
  local.insert_batch("t", rows);

  // Ids reassemble into input order regardless of which shard took which
  // row (client-supplied PRIMARY KEYs make placement invisible).
  ASSERT_EQ(ids.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(ids[i], rows[i][0].as_int64()) << "row " << i;
  }

  // Rows actually spread: no shard is empty, counts sum exactly.
  uint64_t spread_total = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    uint64_t n = dbs_[s]->table("t").row_count();
    EXPECT_GT(n, 0u) << "shard " << s;
    spread_total += n;
  }
  EXPECT_EQ(spread_total, rows.size());
  EXPECT_EQ(remote.row_count("t"), rows.size());

  // 200 queries, alternating the partitioned path (shard-key column
  // a_tag) and the broadcast path (non-key column b_tag), each checked
  // against the local database row-for-row.
  for (int q = 0; q < 100; ++q) {
    std::vector<uint64_t> probes = {static_cast<uint64_t>(q % 17),
                                    static_cast<uint64_t>((q + 5) % 17),
                                    static_cast<uint64_t>((q + 11) % 17)};
    sql::ResultSet via_shards =
        remote.tag_scan("t", "a_tag", probes, /*star=*/(q % 2 == 0));
    std::string sql = (q % 2 == 0 ? std::string("SELECT * FROM t WHERE ")
                                  : std::string("SELECT id FROM t WHERE ")) +
                      "a_tag IN (" + std::to_string(probes[0]) + ", " +
                      std::to_string(probes[1]) + ", " +
                      std::to_string(probes[2]) + ")";
    sql::ResultSet reference = local.execute(sql);
    EXPECT_EQ(sorted_by_id(via_shards.rows), sorted_by_id(reference.rows))
        << "a_tag query " << q;

    std::vector<uint64_t> bprobes = {static_cast<uint64_t>(q % 40)};
    sql::ResultSet via_bcast =
        remote.tag_scan("t", "b_tag", bprobes, /*star=*/false);
    sql::ResultSet bref = local.execute("SELECT id FROM t WHERE b_tag IN (" +
                                        std::to_string(bprobes[0]) + ")");
    EXPECT_EQ(sorted_by_id(via_bcast.rows), sorted_by_id(bref.rows))
        << "b_tag query " << q;
  }

  // SELECT broadcast and full scan agree with the local database too.
  sql::ResultSet sel = remote.execute("SELECT id FROM t WHERE a_tag IN (3)");
  sql::ResultSet sel_ref = local.execute("SELECT id FROM t WHERE a_tag IN (3)");
  EXPECT_EQ(sorted_by_id(sel.rows), sorted_by_id(sel_ref.rows));

  std::vector<sql::Row> scanned;
  remote.scan("t", [&](const sql::Row& row) { scanned.push_back(row); });
  std::vector<sql::Row> scan_ref;
  local.table("t").scan(
      [&](int64_t, const sql::Row& row) { scan_ref.push_back(row); });
  EXPECT_EQ(sorted_by_id(scanned), sorted_by_id(scan_ref));

  EXPECT_GT(remote.stats().fanouts, 0u);
}

// WRE range and AND searches through a fleet: range buckets scatter as
// kTagScan requests, conjunctions broadcast as SQL text. An encrypted
// client over the fleet returns the same plaintext rows as one over a
// single local database. Range tags are deterministic, so the range
// results match in every field; bucketized salts are drawn at random per
// insert, so AND results match in rows only.
TEST_F(ShardFleetTest, EncryptedRangeAndConjunctionMatchSingleDatabase) {
  const sql::Schema schema(
      {{"id", sql::ValueType::kInt64, /*primary_key=*/true},
       {"name", sql::ValueType::kText, false},
       {"city", sql::ValueType::kText, false},
       {"age", sql::ValueType::kInt64, false}});
  const std::vector<std::string> names = {"ann", "ben", "cai", "dev",
                                          "eve", "fay", "gus", "hal"};
  const std::vector<std::string> cities = {"oslo", "lima", "pune"};
  auto person = [&](int64_t id) -> sql::Row {
    return {sql::Value::int64(id),
            sql::Value::text(names[static_cast<size_t>(id) % names.size()]),
            sql::Value::text(cities[static_cast<size_t>(id) % cities.size()]),
            sql::Value::int64(20 + id % 50)};
  };
  std::unordered_map<std::string, uint64_t> name_counts;
  for (const auto& n : names) name_counts[n] = 1;
  std::map<std::string, core::PlaintextDistribution> dists;
  dists.emplace("name", core::PlaintextDistribution::from_counts(name_counts));
  const std::vector<core::EncryptedColumnSpec> specs = {
      {"name", core::SaltMethod::kBucketizedPoisson, 16},
      {"city", core::SaltMethod::kFixed, 4}};
  const std::vector<core::RangeColumnSpec> ranges = {
      core::RangeColumnSpec("age", 20, 69, 8)};
  std::vector<sql::Row> rows;
  for (int64_t id = 0; id < 300; ++id) rows.push_back(person(id));

  const Bytes secret(32, 0x5d);
  RemoteConnection remote = client();
  core::EncryptedConnection fleet(remote, secret);
  fleet.create_table("people", schema, specs, dists, ranges);
  fleet.insert_bulk("people", rows);

  TempDir local_dir;
  sql::Database local_db(local_dir.str());
  core::EncryptedConnection local(local_db, secret);
  local.create_table("people", schema, specs, dists, ranges);
  local.insert_bulk("people", rows);

  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(dbs_[s]->table("people").row_count(), 0u) << "shard " << s;
  }

  const std::vector<std::pair<int64_t, int64_t>> spans = {
      {20, 69}, {25, 31}, {40, 40}, {60, 90}, {50, 30}};
  for (const auto& [lo, hi] : spans) {
    SCOPED_TRACE("age in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
    auto via_fleet = fleet.select_star_range("people", "age", lo, hi);
    auto reference = local.select_star_range("people", "age", lo, hi);
    EXPECT_EQ(sorted_by_id(via_fleet.rows), sorted_by_id(reference.rows));
    EXPECT_EQ(via_fleet.server_rows_returned, reference.server_rows_returned);
    EXPECT_EQ(via_fleet.false_positives, reference.false_positives);
    EXPECT_EQ(via_fleet.sql, reference.sql);
  }

  for (const auto& name : names) {
    for (const auto& city : cities) {
      SCOPED_TRACE(name + " AND " + city);
      std::vector<core::EncryptedConnection::Conjunct> conjuncts = {
          {"name", sql::Value::text(name)}, {"city", sql::Value::text(city)}};
      auto via_fleet = fleet.select_star_and("people", conjuncts);
      auto reference = local.select_star_and("people", conjuncts);
      EXPECT_FALSE(reference.rows.empty());
      EXPECT_EQ(sorted_by_id(via_fleet.rows), sorted_by_id(reference.rows));
      EXPECT_EQ(via_fleet.server_rows_returned,
                via_fleet.rows.size() + via_fleet.false_positives);
    }
  }
}

TEST_F(ShardFleetTest, PipelinedExecuteMatchesSequentialExecute) {
  // The fleet, and one server as the one-shard case of the same path (its
  // own table on shard 0's server, which it addresses as a lone endpoint).
  RemoteConnection fleet = client();
  RemoteConnection single("127.0.0.1", servers_[0]->port());
  for (auto [remote, table] :
       {std::pair<RemoteConnection*, std::string>{&fleet, "t"},
        {&single, "t_single"}}) {
    SCOPED_TRACE(table);
    remote->create_table(table, tagged_schema());
    remote->create_index(table, "a_tag");
    std::vector<sql::Row> rows;
    for (int64_t id = 0; id < 200; ++id) rows.push_back(tagged_row(id));
    remote->insert_batch(table, rows);

    std::vector<std::string> sqls;
    for (int q = 0; q < 20; ++q) {
      sqls.push_back("SELECT id FROM " + table + " WHERE a_tag IN (" +
                     std::to_string(q % 17) + ")");
    }
    std::vector<sql::ResultSet> batch = remote->execute_pipelined(sqls);
    ASSERT_EQ(batch.size(), sqls.size());
    size_t total = 0;
    for (size_t i = 0; i < sqls.size(); ++i) {
      sql::ResultSet one = remote->execute(sqls[i]);
      EXPECT_EQ(sorted_by_id(batch[i].rows), sorted_by_id(one.rows))
          << sqls[i];
      total += one.rows.size();
    }
    EXPECT_GT(total, 0u);
  }
}

TEST_F(ShardFleetTest, ShardedTransportRejectsMutatingSql) {
  RemoteConnection remote = client();
  remote.create_table("t", tagged_schema());
  EXPECT_THROW(
      remote.execute("INSERT INTO t VALUES (1, 2, 3, X'00')"),
      NetworkError);
}

TEST_F(ShardFleetTest, TopologyHandshakeCatchesMisWiredFleet) {
  // Three "endpoints" that are really the same shard-0 server: the map
  // says positions 0/1/2, the servers say index 0 — the first sharded
  // operation must fail loudly before any data moves.
  std::vector<ShardEndpoint> eps(
      3, ShardEndpoint{"127.0.0.1", servers_[0]->port()});
  RemoteConnection bad(eps);
  try {
    bad.row_count("t");
    FAIL() << "mis-wired shard map was accepted";
  } catch (const NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos)
        << e.what();
  }
}

TEST_F(ShardFleetTest, DeadShardFailsTypedWhileHealthyShardsServe) {
  RemoteOptions options;
  options.response_timeout_ms = 1000;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 1;
  options.retry.overall_deadline_ms = 5000;
  RemoteConnection remote = client(options);
  remote.create_table("t", tagged_schema());
  remote.create_index("t", "a_tag");
  std::vector<sql::Row> rows;
  for (int64_t id = 0; id < 200; ++id) rows.push_back(tagged_row(id));
  remote.insert_batch("t", rows);

  // Find a probe tag owned by each shard (a_tag values are 0..16).
  std::vector<uint64_t> owned_by(kShards, UINT64_MAX);
  for (uint64_t t = 0; t < 17; ++t) {
    owned_by[shard_for_tag(t, kShards)] = t;
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_NE(owned_by[s], UINT64_MAX) << "no tag lands on shard " << s;
  }

  // Kill shard 2 mid-workload.
  servers_[2]->stop();
  servers_[2].reset();

  // A partitioned probe that only touches the surviving shards still
  // answers — the dead shard is never contacted.
  sql::ResultSet alive = remote.tag_scan(
      "t", "a_tag", {owned_by[0], owned_by[1]}, /*star=*/false);
  EXPECT_GT(alive.rows.size(), 0u);

  // A probe owned by the dead shard retries against that shard alone,
  // then surfaces the typed retry error.
  uint64_t retries_before = remote.stats().retries;
  EXPECT_THROW(
      remote.tag_scan("t", "a_tag", {owned_by[2]}, /*star=*/false),
      RetriesExhaustedError);
  EXPECT_GT(remote.stats().retries, retries_before);
  EXPECT_GE(remote.stats().exhausted, 1u);

  // The failure did not poison the healthy shards.
  sql::ResultSet still = remote.tag_scan(
      "t", "a_tag", {owned_by[0]}, /*star=*/false);
  EXPECT_GT(still.rows.size(), 0u);
}

// ---------------------------------------------------------------------------
// External-fleet suite, driven by scripts/shard_smoke.sh against real
// wre_server processes started with --shard-index/--shard-count. Selected
// via WRE_SHARD_ENDPOINTS="host:port,host:port,..." (shard order); without
// the variable every test skips, so the suite is inert under plain ctest.

const char* external_fleet_spec() {
  const char* spec = std::getenv("WRE_SHARD_ENDPOINTS");
  return (spec != nullptr && *spec != '\0') ? spec : nullptr;
}

TEST(ExternalShardFleet, ScatterGatherParityAgainstLocalDatabase) {
  const char* spec = external_fleet_spec();
  if (spec == nullptr) {
    GTEST_SKIP() << "WRE_SHARD_ENDPOINTS not set (see scripts/shard_smoke.sh)";
  }
  RemoteConnection remote(parse_endpoints(spec));
  remote.ping();
  remote.create_table("smoke", tagged_schema());
  remote.create_index("smoke", "a_tag");

  TempDir local_dir;
  sql::Database local(local_dir.str());
  local.create_table("smoke", tagged_schema());
  local.create_index("smoke", "a_tag");

  std::vector<sql::Row> rows;
  for (int64_t id = 0; id < 300; ++id) rows.push_back(tagged_row(id));
  remote.insert_batch("smoke", rows);
  local.insert_batch("smoke", rows);
  EXPECT_EQ(remote.row_count("smoke"), rows.size());

  for (int q = 0; q < 50; ++q) {
    std::vector<uint64_t> probes = {static_cast<uint64_t>(q % 17),
                                    static_cast<uint64_t>((q + 7) % 17)};
    sql::ResultSet via_fleet =
        remote.tag_scan("smoke", "a_tag", probes, /*star=*/(q % 2 == 0));
    std::string sql =
        (q % 2 == 0 ? std::string("SELECT * FROM smoke WHERE ")
                    : std::string("SELECT id FROM smoke WHERE ")) +
        "a_tag IN (" + std::to_string(probes[0]) + ", " +
        std::to_string(probes[1]) + ")";
    sql::ResultSet reference = local.execute(sql);
    EXPECT_EQ(sorted_by_id(via_fleet.rows), sorted_by_id(reference.rows))
        << "query " << q;
  }
  EXPECT_GT(remote.stats().fanouts, 0u);
}

TEST(ExternalShardFleet, DeadShardFailsTypedWhileSurvivorsServe) {
  // shard_smoke.sh SIGKILLs the last shard between the parity test above
  // and this one; the "smoke" table is already populated.
  const char* spec = external_fleet_spec();
  if (spec == nullptr) {
    GTEST_SKIP() << "WRE_SHARD_ENDPOINTS not set (see scripts/shard_smoke.sh)";
  }
  auto eps = parse_endpoints(spec);
  ASSERT_GE(eps.size(), 2u);
  RemoteOptions options;
  options.verify_topology = false;  // the dead shard can't answer kShardInfo
  options.response_timeout_ms = 1000;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 1;
  options.retry.overall_deadline_ms = 5000;
  RemoteConnection remote(eps, options);

  const auto n = static_cast<uint32_t>(eps.size());
  std::vector<uint64_t> owned_by(n, UINT64_MAX);
  for (uint64_t t = 0; t < 17; ++t) owned_by[shard_for_tag(t, n)] = t;
  for (uint32_t s = 0; s < n; ++s) {
    ASSERT_NE(owned_by[s], UINT64_MAX) << "no tag lands on shard " << s;
  }
  const uint32_t dead = n - 1;

  // Partitioned probes owned by survivors answer without touching the
  // corpse; the dead shard's probe retries against it alone, then fails
  // with the typed retry error.
  for (uint32_t s = 0; s < dead; ++s) {
    sql::ResultSet alive =
        remote.tag_scan("smoke", "a_tag", {owned_by[s]}, /*star=*/false);
    EXPECT_GT(alive.rows.size(), 0u) << "shard " << s;
  }
  uint64_t retries_before = remote.stats().retries;
  EXPECT_THROW(
      remote.tag_scan("smoke", "a_tag", {owned_by[dead]}, /*star=*/false),
      RetriesExhaustedError);
  EXPECT_GT(remote.stats().retries, retries_before);
  EXPECT_GE(remote.stats().exhausted, 1u);

  // The failure did not poison the survivors.
  sql::ResultSet still =
      remote.tag_scan("smoke", "a_tag", {owned_by[0]}, /*star=*/false);
  EXPECT_GT(still.rows.size(), 0u);
}

}  // namespace
