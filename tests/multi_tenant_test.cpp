// Multi-tenant regression suite: per-tenant key derivation (locked by
// golden KATs), cross-tenant search isolation on a shared physical table,
// tenant-scoped idempotency replay, and the wire/tooling glue that routes a
// tenant id from client to server.
//
// The KATs here are load-bearing beyond normal regression value: every
// tenant's data is encrypted under keys reachable only through the exact
// derivation spec in src/crypto/tenant_keys.h. If an edit changes these
// outputs, it orphans all existing multi-tenant data — the fixture failing
// is the alarm, not an invitation to regenerate the constants.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "src/core/tenant.h"
#include "src/crypto/cpu_features.h"
#include "src/crypto/hkdf.h"
#include "src/crypto/keys.h"
#include "src/crypto/tenant_keys.h"
#include "src/net/dedup_cache.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace wre {
namespace {

Bytes fixed_master() {
  Bytes master(32);
  for (size_t i = 0; i < master.size(); ++i) {
    master[i] = static_cast<uint8_t>(i);
  }
  return master;
}

std::string to_hex(ByteView b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t x : b) {
    out.push_back(kDigits[x >> 4]);
    out.push_back(kDigits[x & 0xF]);
  }
  return out;
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           ("wre_mt_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// ---------------------------------------------------------------------------
// Key derivation: golden KATs + spec cross-checks.

TEST(TenantKeys, GoldenDerivation) {
  // Golden vectors for master = 00 01 ... 1f. Changing tenant_keys.cpp in a
  // way that breaks these orphans every deployed tenant's data.
  crypto::TenantKeyring ring(fixed_master());
  struct Vector {
    uint64_t tenant;
    const char* secret_hex;
    const char* tag_key_hex;
  };
  const Vector vectors[] = {
      {0,
       "3359de7d9f98a4e15b4edce36d292f04cc66a9cb0f40bd791a2d195363b237b1",
       "2465cc1c695ab2b2ee8044d7747145104efe64501ca6f0ae096f425df17cb019"},
      {1,
       "cf8bdf69347cd2305248866ca34dc0d8988d1d5e9186c77fc60e95743f3a39c3",
       "f9dda24e36092825cffa92fdd538186a9cc3114e7ffb6ab0092fa2ee63fbcca1"},
      {42,
       "94b9254cf9bf020fd11a48f29a4986e5c194fa24a1156dc28c7c0a27d053d6a8",
       "257e91a3cbed0915ac98c64a7d399a2e1bbfecf45751d9dcb819d4182544aa88"},
      {0xFFFFFFFFFFFFFFFFull,
       "9dfd47fb63d16f09899fc7a7a1edc71e2b0885d8e5f5ec40632c8006b40d0bd8",
       "8b702a8038bf367b764fad52ea9e335c68ab766e2341f1ca2e873724f4c6f374"},
  };
  for (const auto& v : vectors) {
    Bytes secret = ring.tenant_secret(v.tenant);
    EXPECT_EQ(to_hex(secret), v.secret_hex) << "tenant " << v.tenant;
    // The tenant's keys are KeyBundle::derive of its secret: a tenant
    // handed its secret behaves like a standalone deployment.
    auto bundle = crypto::KeyBundle::derive(secret);
    EXPECT_EQ(to_hex(bundle.tag_key), v.tag_key_hex) << "tenant " << v.tenant;
  }
}

TEST(TenantKeys, MatchesSpecViaPublicHkdf) {
  // The documented derivation, written out with the public HKDF functions —
  // the spec-as-code twin of the hardcoded goldens above.
  Bytes master = fixed_master();
  crypto::TenantKeyring ring(master);
  const std::string salt = "wre-tenant-keyring-v1";
  Bytes prk = crypto::hkdf_extract(
      ByteView(reinterpret_cast<const uint8_t*>(salt.data()), salt.size()),
      master);
  for (uint64_t tenant : {7ull, 123456789ull}) {
    Bytes info;
    const char* label = "tenant";
    info.insert(info.end(), label, label + 6);
    for (int i = 0; i < 8; ++i) {
      info.push_back(static_cast<uint8_t>(tenant >> (8 * i)));
    }
    EXPECT_EQ(ring.tenant_secret(tenant),
              crypto::hkdf_expand(prk, info, 32));
  }
}

TEST(TenantKeys, HardwareAndScalarPathsAgree) {
  // The keyring rides on HMAC midstates; the SHA-256 compression under them
  // has a SHA-NI and a scalar implementation. Derivations must be
  // bit-identical across both, or a fleet with mixed hardware would derive
  // different keys for the same tenant.
  Bytes master = fixed_master();
  bool prev = crypto::set_hwcrypto_enabled(true);
  std::vector<Bytes> hw;
  {
    crypto::TenantKeyring ring(master);
    for (uint64_t t = 0; t < 64; ++t) hw.push_back(ring.tenant_secret(t));
  }
  crypto::set_hwcrypto_enabled(false);
  {
    crypto::TenantKeyring ring(master);
    for (uint64_t t = 0; t < 64; ++t) {
      EXPECT_EQ(ring.tenant_secret(t), hw[static_cast<size_t>(t)])
          << "tenant " << t;
    }
  }
  crypto::set_hwcrypto_enabled(prev);
}

TEST(TenantKeys, SecretsAreDistinct) {
  crypto::TenantKeyring ring(fixed_master());
  std::set<std::string> seen;
  for (uint64_t t = 0; t < 256; ++t) {
    seen.insert(to_hex(ring.tenant_secret(t)));
  }
  EXPECT_EQ(seen.size(), 256u);  // no collisions across adjacent ids
}

TEST(TenantKeys, ConcurrentDerivationIsSafe) {
  crypto::TenantKeyring ring(fixed_master());
  const Bytes want = ring.tenant_secret(7);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int k = 0; k < 8; ++k) {
    threads.emplace_back([&ring, &ok, &want] {
      for (int i = 0; i < 128; ++i) {
        if (ring.tenant_secret(7) != want) ok = false;  // one shared keyring
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// Cross-tenant isolation on one shared physical table (in-process).

core::TenantTableConfig small_config() {
  core::TenantTableConfig cfg;
  cfg.table = "shared";
  cfg.logical = sql::Schema({sql::Column{"id", sql::ValueType::kInt64, true},
                             sql::Column{"city", sql::ValueType::kText}});
  cfg.specs.push_back(
      core::EncryptedColumnSpec{"city", core::SaltMethod::kPoisson, 8});
  cfg.distributions.emplace(
      "city", core::PlaintextDistribution::from_probabilities(
                  {{"rome", 0.5}, {"oslo", 0.3}, {"lima", 0.2}}));
  return cfg;
}

TEST(TenantPool, CrossTenantSearchIsolation) {
  TempDir dir("isolation");
  sql::DatabaseOptions options;
  options.columnar = true;
  sql::Database db(dir.str(), options);
  core::LocalTransport transport(db);
  core::TenantPool pool(transport, fixed_master(), small_config());

  // Tenants insert the SAME plaintext values into the SAME physical table.
  // Id ranges identify the owner: tenant t owns [100t, 100t + n).
  const std::vector<std::string> values = {"rome", "oslo", "lima"};
  for (uint64_t t = 0; t < 3; ++t) {
    auto& conn = pool.connection(t);
    for (int64_t i = 0; i < 9; ++i) {
      sql::Row row{sql::Value::int64(static_cast<int64_t>(t) * 100 + i),
                   sql::Value::text(values[static_cast<size_t>(i) % 3])};
      conn.insert("shared", row);
    }
  }
  EXPECT_EQ(pool.open_tenants(), 3u);
  EXPECT_EQ(transport.row_count("shared"), 27u);  // one interleaved table

  auto owned_by = [](uint64_t t, int64_t id) {
    return id >= static_cast<int64_t>(t) * 100 &&
           id < static_cast<int64_t>(t) * 100 + 9;
  };
  // Every tenant's search returns exactly its own rows — never a row of
  // another tenant, even though all 27 rows encode the same three values —
  // on the row path and on the columnar path, which must agree exactly.
  std::vector<std::pair<std::vector<int64_t>, std::vector<sql::Row>>>
      views[2];
  for (bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "columnar scan path" : "row scan path");
    db.set_columnar_enabled(columnar);
    for (uint64_t t = 0; t < 3; ++t) {
      auto& conn = pool.connection(t);
      for (const auto& v : values) {
        auto ids = conn.select_ids("shared", "city", v).ids;
        auto rows = conn.select_star("shared", "city", v).rows;
        EXPECT_EQ(ids.size(), 3u) << "tenant " << t << " value " << v;
        for (int64_t id : ids) EXPECT_TRUE(owned_by(t, id)) << id;
        EXPECT_EQ(rows.size(), 3u) << "tenant " << t << " value " << v;
        for (const auto& row : rows) {
          EXPECT_TRUE(owned_by(t, row[0].as_int64()));
          EXPECT_EQ(row[1].as_text(), v);
        }
        views[columnar].emplace_back(std::move(ids), std::move(rows));
      }
      // IN-scans stay isolated too (the union path dedups tags client-side).
      auto in_result = conn.select_ids_in("shared", "city", {"rome", "oslo"});
      EXPECT_EQ(in_result.ids.size(), 6u);
      for (int64_t id : in_result.ids) EXPECT_TRUE(owned_by(t, id)) << id;
    }
  }
  EXPECT_EQ(views[0], views[1]);

  // What the server stores: tag integers and ciphertext blobs. No cell of
  // the physical table contains a searchable plaintext.
  sql::Schema physical = transport.table_schema("shared");
  EXPECT_TRUE(physical.index_of("city_tag").has_value());
  EXPECT_TRUE(physical.index_of("city_enc").has_value());
  EXPECT_FALSE(physical.index_of("city").has_value());
}

TEST(TenantPool, RemoteEndToEndWithTenantStamping) {
  // The full deployment shape: one wre_server, one shared table, tenants
  // multiplexed over one TCP transport with on_switch stamping the wire
  // tenant id (scoping only the idempotency cache — isolation above came
  // from keys alone, with no tenant id on the wire at all).
  TempDir dir("remote_mt");
  sql::Database db(dir.str());
  net::ServerOptions options;
  options.worker_threads = 2;
  net::Server server(db, options);
  server.start();
  {
    net::RemoteConnection remote("127.0.0.1", server.port());
    core::TenantPool pool(
        remote, fixed_master(), small_config(),
        [&remote](uint64_t t) { remote.set_tenant_id(t); });

    for (uint64_t t = 1; t <= 4; ++t) {
      auto& conn = pool.connection(t);
      for (int64_t i = 0; i < 4; ++i) {
        conn.insert("shared",
                    sql::Row{sql::Value::int64(static_cast<int64_t>(t) * 10 + i),
                             sql::Value::text("rome")});
      }
    }
    for (uint64_t t = 1; t <= 4; ++t) {
      auto result = pool.connection(t).select_ids("shared", "city", "rome");
      EXPECT_EQ(result.ids.size(), 4u) << "tenant " << t;
      for (int64_t id : result.ids) {
        EXPECT_EQ(id / 10, static_cast<int64_t>(t));
      }
    }

    // A second pool (fresh client process, same master) attaches to the
    // existing table and sees the same per-tenant views.
    net::RemoteConnection remote2("127.0.0.1", server.port());
    core::TenantPool pool2(
        remote2, fixed_master(), small_config(),
        [&remote2](uint64_t t) { remote2.set_tenant_id(t); });
    auto reopened = pool2.connection(2).select_ids("shared", "city", "rome");
    EXPECT_EQ(reopened.ids.size(), 4u);
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Tenant-scoped idempotency: the dedup cache and the server's use of it.

TEST(DedupCache, KeysAreTenantScoped) {
  net::DedupCache cache;
  net::IdempotencyKey raw{};
  raw.fill(0xAB);
  net::DedupKey tenant_a{1, raw};
  net::DedupKey tenant_b{2, raw};  // same 16 bytes, different tenant

  net::Frame cached;
  ASSERT_TRUE(cache.begin(tenant_a, &cached));
  net::Frame response;
  response.opcode = net::Opcode::kOkUnit;
  cache.complete(tenant_a, response);

  // Tenant A replays; tenant B with the identical key bytes does not.
  EXPECT_FALSE(cache.begin(tenant_a, &cached));
  EXPECT_EQ(cached.opcode, net::Opcode::kOkUnit);
  EXPECT_TRUE(cache.begin(tenant_b, &cached));
}

// Sends one raw request frame and reads back the response frame.
net::Frame roundtrip_raw(net::Socket& sock, net::Opcode op, ByteView payload,
                         const net::RequestExt& ext) {
  sock.send_all(net::encode_request_frame(op, payload, ext));
  uint8_t header[net::kFrameHeaderBytes];
  sock.recv_all(header, sizeof(header));
  auto fh = net::decode_frame_header(header, net::kDefaultMaxFrameBytes);
  net::Frame frame;
  frame.opcode = fh.opcode;
  frame.payload.resize(fh.payload_length);
  if (fh.payload_length > 0) {
    sock.recv_all(frame.payload.data(), frame.payload.size());
  }
  return frame;
}

TEST(Server, DedupIsScopedByTenant) {
  // Replay tenant 1's exact idempotency key as tenant 2: the mutation must
  // execute again (different tenant, different dedup slot), while tenant 1's
  // own retry replays the recorded response without re-executing.
  TempDir dir("dedup_mt");
  sql::Database db(dir.str());
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  net::Server server(db, {});
  server.start();
  {
    net::Socket sock = net::Socket::connect("127.0.0.1", server.port());
    net::RequestExt ext;
    ext.key.fill(0x5C);

    net::WireWriter insert1;
    insert1.string("INSERT INTO t VALUES (1, 7)");
    ext.tenant_id = 1;
    auto r1 = roundtrip_raw(sock, net::Opcode::kExecSql, insert1.bytes(), ext);
    EXPECT_EQ(r1.opcode, net::Opcode::kOkResult);
    EXPECT_EQ(db.table("t").row_count(), 1u);

    // Same tenant, same key, CONFLICTING statement: the recorded response
    // replays and nothing executes — proof the dedup hit, since executing
    // this statement would throw a duplicate-PK error.
    net::WireWriter conflict;
    conflict.string("INSERT INTO t VALUES (1, 8)");
    auto r2 = roundtrip_raw(sock, net::Opcode::kExecSql, conflict.bytes(), ext);
    EXPECT_EQ(r2.opcode, net::Opcode::kOkResult);
    EXPECT_EQ(db.table("t").row_count(), 1u);
    EXPECT_EQ(server.dedup_hits(), 1u);

    // Different tenant, identical key bytes: executes as a fresh request.
    net::WireWriter insert2;
    insert2.string("INSERT INTO t VALUES (2, 9)");
    ext.tenant_id = 2;
    auto r3 = roundtrip_raw(sock, net::Opcode::kExecSql, insert2.bytes(), ext);
    EXPECT_EQ(r3.opcode, net::Opcode::kOkResult);
    EXPECT_EQ(db.table("t").row_count(), 2u);
    EXPECT_EQ(server.dedup_hits(), 1u);  // no new hit
  }
  server.stop();
}

}  // namespace
}  // namespace wre
