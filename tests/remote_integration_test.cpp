// End-to-end WRE over the network service layer: what only a remote
// deployment has — the server's view of the data, manifest reopen over the
// wire, bulk ingest through the transport, and drain. Answer parity with
// the in-process configuration is tests/differential_test.cpp's job.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/sql/database.h"
#include "tests/test_util.h"

using namespace wre;
using wre::testing::TempDir;

namespace {

sql::Schema people_schema() {
  return sql::Schema({{"id", sql::ValueType::kInt64, /*primary_key=*/true},
                      {"name", sql::ValueType::kText, false},
                      {"city", sql::ValueType::kText, false},
                      {"age", sql::ValueType::kInt64, false}});
}

core::PlaintextDistribution uniform_over(
    const std::vector<std::string>& values) {
  std::unordered_map<std::string, uint64_t> counts;
  for (const auto& v : values) counts[v] = 10;
  return core::PlaintextDistribution::from_counts(counts);
}

const std::vector<std::string> kNames = {"alice", "bob", "carol", "dave"};
const std::vector<std::string> kCities = {"oslo", "lima", "pune"};

sql::Row person(int64_t id) {
  return {sql::Value::int64(id),
          sql::Value::text(kNames[static_cast<size_t>(id) % kNames.size()]),
          sql::Value::text(kCities[static_cast<size_t>(id) % kCities.size()]),
          sql::Value::int64(20 + id % 50)};
}

void create_people_table(core::EncryptedConnection& conn) {
  std::vector<core::EncryptedColumnSpec> specs = {
      {"name", core::SaltMethod::kPoisson, 50},
      {"city", core::SaltMethod::kFixed, 10},
  };
  std::map<std::string, core::PlaintextDistribution> dists;
  dists.emplace("name", uniform_over(kNames));
  conn.create_table("people", people_schema(), specs, dists);
}

/// In-process loopback fixture: database + server + remote client.
class RemoteWreTest : public ::testing::Test {
 protected:
  RemoteWreTest()
      : db_(dir_.str()),
        server_(db_, {}),
        remote_("127.0.0.1", [this] {
          server_.start();
          return server_.port();
        }()) {}

  ~RemoteWreTest() override { server_.stop(); }

  TempDir dir_;
  sql::Database db_;
  net::Server server_;
  net::RemoteConnection remote_;
  crypto::SecureRandom entropy_;
};

TEST_F(RemoteWreTest, OnlyTagsAndCiphertextReachTheServer) {
  Bytes secret = entropy_.bytes(32);
  core::EncryptedConnection conn(remote_, secret);
  create_people_table(conn);
  for (int64_t id = 0; id < 30; ++id) conn.insert("people", person(id));

  // Inspect the server-side table directly: encrypted columns must exist
  // only as <col>_tag integers and <col>_enc blobs, and no stored blob may
  // contain a plaintext name.
  sql::Schema server_schema = db_.table("people").schema();
  std::vector<std::string> names;
  for (const auto& col : server_schema.columns()) names.push_back(col.name);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "name_tag") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "name_enc") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "name") == 0);

  auto idx = server_schema.index_of("name_enc");
  ASSERT_TRUE(idx.has_value());
  db_.table("people").scan([&](int64_t, const sql::Row& row) {
    const Bytes& enc = row[*idx].as_blob();
    std::string as_str(enc.begin(), enc.end());
    for (const auto& name : kNames) {
      EXPECT_EQ(as_str.find(name), std::string::npos);
    }
  });
}

TEST_F(RemoteWreTest, RemoteManifestReopens) {
  Bytes secret = entropy_.bytes(32);
  {
    core::EncryptedConnection conn(remote_, secret);
    create_people_table(conn);
    for (int64_t id = 0; id < 40; ++id) conn.insert("people", person(id));
  }
  // A fresh remote client with the same secret reopens via the manifest
  // fetched over the wire and keeps querying the same tags.
  net::RemoteConnection remote2("127.0.0.1", server_.port());
  core::EncryptedConnection conn2(remote2, secret);
  conn2.open_table("people");
  auto res = conn2.select_ids("people", "name", "alice");
  EXPECT_EQ(res.ids.size(), 10u);

  // And it can keep writing: new rows remain searchable.
  conn2.insert("people", person(1000));
  EXPECT_EQ(conn2.select_ids("people", "city", kCities[1000 % 3]).ids.size(),
            14u);
}

TEST_F(RemoteWreTest, BulkIngestOverTheWire) {
  Bytes secret = entropy_.bytes(32);
  core::EncryptedConnection conn(remote_, secret);
  create_people_table(conn);

  std::vector<sql::Row> rows;
  for (int64_t id = 0; id < 500; ++id) rows.push_back(person(id));
  core::IngestOptions options;
  options.threads = 2;
  conn.insert_bulk("people", rows, options);

  EXPECT_EQ(remote_.row_count("people"), 500u);
  EXPECT_EQ(conn.select_ids("people", "name", "alice").ids.size(), 125u);
}

TEST_F(RemoteWreTest, DrainFinishesInFlightWork) {
  Bytes secret = entropy_.bytes(32);
  core::EncryptedConnection conn(remote_, secret);
  create_people_table(conn);
  for (int64_t id = 0; id < 50; ++id) conn.insert("people", person(id));

  server_.stop();
  // Post-drain: the database is consistent and immediately reusable
  // in-process (the wre_server binary checkpoints at this point).
  core::EncryptedConnection local(db_, secret);
  local.open_table("people");
  EXPECT_EQ(local.select_ids("people", "name", "bob").ids.size(), 13u);

  // New remote requests fail cleanly rather than hanging. (The drained
  // listener's descriptor lingers until the Server is destroyed, so the
  // connect itself may still complete — bound the probe instead of waiting
  // out the default 60 s response timeout.)
  net::RemoteOptions probe_options;
  probe_options.response_timeout_ms = 1000;
  EXPECT_THROW(
      {
        net::RemoteConnection dead("127.0.0.1", server_.port(), probe_options);
        dead.ping();
      },
      NetworkError);
}

}  // namespace
