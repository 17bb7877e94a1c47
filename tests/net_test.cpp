// The network service layer: wire codec round-trips, error-status mapping,
// malformed-frame handling against a live server, RemoteConnection
// transport semantics and its channel pool, frames sent back to back by a
// raw client, graceful drain, and the wre_server command line.
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <thread>

#include "src/core/transport.h"
#include "src/net/channel.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/sql/database.h"
#include "src/sql/parser.h"
#include "tests/test_util.h"

using namespace wre;
using namespace wre::net;
using wre::testing::TempDir;

namespace {

sql::Schema kv_schema() {
  return sql::Schema({{"id", sql::ValueType::kInt64, /*primary_key=*/true},
                      {"tag", sql::ValueType::kInt64, false},
                      {"payload", sql::ValueType::kBlob, false}});
}

// ---------------------------------------------------------------------------
// Wire codec round-trips.

sql::Value roundtrip_value(const sql::Value& v) {
  WireWriter w;
  w.value(v);
  WireReader r(w.bytes());
  sql::Value out = r.value();
  r.expect_end();
  return out;
}

TEST(Wire, ValueRoundTripAllVariants) {
  // Every variant the storage layer can hold, including the edge cases a
  // hostile peer would probe: NULL, empty blob/text, extreme integers.
  std::vector<sql::Value> cases = {
      sql::Value::null(),
      sql::Value::int64(0),
      sql::Value::int64(-1),
      sql::Value::int64(std::numeric_limits<int64_t>::min()),
      sql::Value::int64(std::numeric_limits<int64_t>::max()),
      sql::Value::text(""),
      sql::Value::text("hello"),
      sql::Value::text(std::string(100000, 'x')),
      sql::Value::blob(Bytes{}),
      sql::Value::blob(Bytes{0x00, 0xff, 0x7f, 0x80}),
      sql::Value::blob(Bytes(1 << 16, 0xab)),
  };
  for (const auto& v : cases) {
    EXPECT_EQ(roundtrip_value(v), v) << v.to_sql_literal();
  }
}

TEST(Wire, RowRoundTrip) {
  sql::Row row = {sql::Value::int64(-42), sql::Value::null(),
                  sql::Value::text("bob"), sql::Value::blob({1, 2, 3})};
  WireWriter w;
  w.row(row);
  WireReader r(w.bytes());
  EXPECT_EQ(r.row(), row);
  r.expect_end();
}

TEST(Wire, SchemaRoundTrip) {
  sql::Schema s = kv_schema();
  WireWriter w;
  w.schema(s);
  WireReader r(w.bytes());
  sql::Schema out = r.schema();
  r.expect_end();
  ASSERT_EQ(out.columns().size(), s.columns().size());
  for (size_t i = 0; i < s.columns().size(); ++i) {
    EXPECT_EQ(out.columns()[i].name, s.columns()[i].name);
    EXPECT_EQ(out.columns()[i].type, s.columns()[i].type);
    EXPECT_EQ(out.columns()[i].primary_key, s.columns()[i].primary_key);
  }
}

TEST(Wire, ResultSetRoundTrip) {
  sql::ResultSet rs;
  rs.columns = {"id", "name"};
  rs.rows = {{sql::Value::int64(1), sql::Value::text("a")},
             {sql::Value::int64(2), sql::Value::null()}};
  rs.rows_affected = 7;
  rs.index_probes = 1234;
  rs.heap_fetches = 99;
  rs.used_index = true;

  WireWriter w;
  encode_result_set(rs, w);
  WireReader r(w.bytes());
  sql::ResultSet out = decode_result_set(r);
  r.expect_end();
  EXPECT_EQ(out.columns, rs.columns);
  EXPECT_EQ(out.rows, rs.rows);
  EXPECT_EQ(out.rows_affected, rs.rows_affected);
  EXPECT_EQ(out.index_probes, rs.index_probes);
  EXPECT_EQ(out.heap_fetches, rs.heap_fetches);
  EXPECT_EQ(out.used_index, rs.used_index);
}

TEST(Wire, TruncatedValueThrows) {
  WireWriter w;
  w.value(sql::Value::text("hello world"));
  Bytes full = w.bytes();
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<ptrdiff_t>(cut));
    WireReader r(prefix);
    EXPECT_THROW(r.value(), NetworkError) << "cut at " << cut;
  }
}

TEST(Wire, InflatedCountsThrowBeforeAllocating) {
  // A row claiming 2^32-1 values in a 6-byte payload must be rejected by
  // the count-vs-remaining check, not by attempting the reads.
  WireWriter w;
  w.u32(0xffffffffu);
  w.u16(0);
  WireReader r(w.bytes());
  EXPECT_THROW(r.row(), NetworkError);

  WireWriter w2;
  w2.u32(0xffffffffu);
  WireReader r2(w2.bytes());
  EXPECT_THROW(decode_result_set(r2), NetworkError);
}

TEST(Wire, RowWidthMustMatchColumnCount) {
  // A hostile or broken server claims three columns but sends rows of one
  // and of four values; clients index cells by column, so both must be
  // rejected at decode time.
  for (uint32_t width : {1u, 4u}) {
    WireWriter w;
    w.u32(3);
    for (const char* name : {"id", "name_tag", "name_enc"}) w.string(name);
    w.u32(1);
    w.u32(width);
    for (uint32_t i = 0; i < width; ++i) w.value(sql::Value::int64(i));
    w.u64(0);
    w.u64(0);
    w.u64(0);
    w.u8(0);
    WireReader r(w.bytes());
    EXPECT_THROW(decode_result_set(r), NetworkError) << width;
  }
}

TEST(Wire, TrailingGarbageRejected) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  WireReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_end(), NetworkError);
}

TEST(Wire, FrameHeaderValidation) {
  Bytes good = encode_frame(Opcode::kPing, {});
  ASSERT_EQ(good.size(), kFrameHeaderBytes);
  uint8_t header[kFrameHeaderBytes];

  auto load = [&](const Bytes& b) { std::copy_n(b.begin(), 8, header); };
  load(good);
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  EXPECT_EQ(fh.opcode, Opcode::kPing);
  EXPECT_EQ(fh.payload_length, 0u);

  Bytes bad_magic = good;
  bad_magic[0] = 'X';
  load(bad_magic);
  EXPECT_THROW(decode_frame_header(header, kDefaultMaxFrameBytes),
               NetworkError);

  Bytes bad_version = good;
  bad_version[2] = 99;
  load(bad_version);
  EXPECT_THROW(decode_frame_header(header, kDefaultMaxFrameBytes),
               NetworkError);

  Bytes oversized = encode_frame(Opcode::kPing, Bytes(1024, 0));
  load(oversized);
  EXPECT_THROW(decode_frame_header(header, /*max_frame_bytes=*/512),
               FrameTooLargeError);
}

// A payload the u32 length field cannot express is refused, not sent with
// a truncated length. The view spans a 4 GiB + 1 mapping that reserves no
// memory and cannot be read: an encoder that copied it would crash on the
// first byte instead of allocating 4 GiB.
TEST(Wire, EncodeRefusesPayloadsPastTheLengthField) {
  const size_t size = kMaxFramePayloadBytes + 1;
  void* mem = ::mmap(nullptr, size, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  ByteView huge(static_cast<const uint8_t*>(mem), size);
  EXPECT_THROW(encode_frame(Opcode::kOkResult, huge), FrameTooLargeError);
  EXPECT_THROW(encode_request_frame(Opcode::kExecSql, huge, RequestExt{}),
               FrameTooLargeError);
  ::munmap(mem, size);
}

TEST(Wire, RequestExtRoundTrip) {
  RequestExt ext;
  ext.deadline_ms = 1234;
  ext.tenant_id = 0x1122334455667788ull;
  for (size_t i = 0; i < ext.key.size(); ++i) {
    ext.key[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  Bytes payload = {0xDE, 0xAD};
  Bytes frame = encode_request_frame(Opcode::kExecSql, payload, ext);

  // header | ext_len | ext body | payload
  uint8_t header[kFrameHeaderBytes];
  ASSERT_EQ(kRequestExtBytes, 31u);
  ASSERT_EQ(frame.size(), kRequestHeadBytes + payload.size());
  std::copy_n(frame.begin(), kFrameHeaderBytes, header);
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  EXPECT_EQ(fh.version, kWireVersionExt);
  EXPECT_EQ(fh.opcode, Opcode::kExecSql);
  // payload_length counts the payload only, never the extension.
  EXPECT_EQ(fh.payload_length, payload.size());

  size_t ext_len = frame[kFrameHeaderBytes];
  ASSERT_EQ(ext_len, kRequestExtBytes);
  // The layout is pinned byte for byte: flags, reserved, deadline, key,
  // tenant id.
  EXPECT_EQ(Bytes(frame.begin() + 9, frame.begin() + 12),
            (Bytes{0x03, 0x00, 0x00}));
  EXPECT_EQ(load_le32(frame.data() + 12), 1234u);
  EXPECT_TRUE(std::equal(ext.key.begin(), ext.key.end(), frame.begin() + 16));
  EXPECT_EQ(load_le64(frame.data() + 32), ext.tenant_id);
  RequestHead head;
  ASSERT_TRUE(decode_request_head(frame, kDefaultMaxFrameBytes, &head));
  EXPECT_EQ(head.opcode, Opcode::kExecSql);
  EXPECT_EQ(head.payload_length, payload.size());
  EXPECT_EQ(head.ext.key, ext.key);
  EXPECT_EQ(head.ext.deadline_ms, 1234u);
  EXPECT_EQ(head.ext.tenant_id, ext.tenant_id);
  EXPECT_EQ(Bytes(frame.end() - 2, frame.end()), payload);

  // Every prefix of the head is "not yet": decode_request_head never reads
  // past the bytes it is given.
  for (size_t cut = 0; cut < kRequestHeadBytes; ++cut) {
    EXPECT_FALSE(decode_request_head(ByteView(frame.data(), cut),
                                     kDefaultMaxFrameBytes, &head))
        << "cut at " << cut;
  }
}

// A request has one framing. A version-1 frame, a 23-byte (tenant-less) or
// a grown extension, and flags without the key or tenant bit are each a
// framing fault, decided as soon as the offending byte has arrived.
TEST(Wire, RequestHeadAcceptsOnlyTheOneRequestForm) {
  RequestHead head;
  const Bytes v1 = encode_frame(Opcode::kPing, {});
  EXPECT_THROW(decode_request_head(v1, kDefaultMaxFrameBytes, &head),
               NetworkError);

  const Bytes good = encode_request_frame(Opcode::kPing, {}, RequestExt{});
  for (uint8_t ext_len : {0, 23, 30, 32, 64, 255}) {
    Bytes bad(good.begin(), good.begin() + kFrameHeaderBytes);
    bad.push_back(ext_len);
    EXPECT_THROW(decode_request_head(bad, kDefaultMaxFrameBytes, &head),
                 NetworkError)
        << "ext_len " << int{ext_len};
  }
  for (size_t at : {size_t{0}, size_t{1}, size_t{2}}) {  // flags, reserved
    for (uint8_t byte : {0x00, 0x01, 0x02, 0x07, 0x83}) {
      Bytes bad = good;
      bad[kFrameHeaderBytes + 1 + at] = byte;
      if (bad == good) continue;
      EXPECT_THROW(decode_request_head(bad, kDefaultMaxFrameBytes, &head),
                   NetworkError)
          << "byte " << at << " = " << int{byte};
    }
  }
}

// ---------------------------------------------------------------------------
// Error-status mapping: every wre::Error subclass crosses the wire and
// re-throws as the same type (satellite of the trust-boundary design — the
// client's catch sites behave identically local and remote).

template <typename E>
void expect_error_roundtrip(StatusCode expected_code) {
  E original("boom");
  EXPECT_EQ(status_code_for(original), expected_code);
  try {
    rethrow_status(status_code_for(original), original.what());
    FAIL() << "rethrow_status returned";
  } catch (const E& e) {
    EXPECT_STREQ(e.what(), "boom");
  } catch (const std::exception& e) {
    FAIL() << "wrong exception type for code "
           << static_cast<int>(expected_code) << ": " << e.what();
  }
}

TEST(WireStatus, ErrorHierarchyRoundTrips) {
  expect_error_roundtrip<StorageError>(StatusCode::kStorage);
  expect_error_roundtrip<SqlError>(StatusCode::kSql);
  expect_error_roundtrip<CryptoError>(StatusCode::kCrypto);
  expect_error_roundtrip<WreError>(StatusCode::kWre);
  expect_error_roundtrip<NetworkError>(StatusCode::kNetwork);
  expect_error_roundtrip<OverloadedError>(StatusCode::kOverloaded);
  expect_error_roundtrip<FrameTooLargeError>(StatusCode::kFrameTooLarge);
  expect_error_roundtrip<Error>(StatusCode::kGeneric);
}

TEST(WireStatus, OverloadedIsDistinctFromNetwork) {
  // kOverloaded is the retryable status; it must not collapse into the
  // generic kNetwork bucket or the client would reconnect instead of
  // backing off.
  OverloadedError shed("shed");
  EXPECT_EQ(status_code_for(shed), StatusCode::kOverloaded);
  NetworkError plain("io");
  EXPECT_EQ(status_code_for(plain), StatusCode::kNetwork);
}

TEST(WireStatus, NonWreExceptionIsGeneric) {
  std::runtime_error plain("plain");
  EXPECT_EQ(status_code_for(plain), StatusCode::kGeneric);
  EXPECT_THROW(rethrow_status(StatusCode::kGeneric, "x"), Error);
  // Unknown future codes degrade to the hierarchy root.
  EXPECT_THROW(rethrow_status(static_cast<StatusCode>(999), "x"), Error);
}

// ---------------------------------------------------------------------------
// Live server: a scratch database behind a loopback listener.

/// A raw client that sends back to back, as RemoteConnection never does:
/// writes every request frame in one send_all, runs `on_the_wire` (if set)
/// once they are sent, then reads one response per frame, in order.
std::vector<Frame> send_back_to_back(
    uint16_t port, const std::vector<Bytes>& frames,
    const std::function<void()>& on_the_wire = {}) {
  Socket s = Socket::connect("127.0.0.1", port);
  s.set_recv_timeout_ms(5000);
  Bytes burst;
  for (const Bytes& frame : frames) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  s.send_all(burst);
  if (on_the_wire) on_the_wire();
  std::vector<Frame> responses;
  for (size_t i = 0; i < frames.size(); ++i) {
    uint8_t header[kFrameHeaderBytes];
    s.recv_all(header, sizeof(header));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    Frame resp{fh.opcode, Bytes(fh.payload_length)};
    if (fh.payload_length > 0) {
      s.recv_all(resp.payload.data(), resp.payload.size());
    }
    responses.push_back(std::move(resp));
  }
  return responses;
}

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest() : db_(dir_.str()) {
    ServerOptions options;
    options.worker_threads = 4;
    options.read_timeout_ms = 5000;
    options.max_frame_bytes = 1 << 20;
    server_ = std::make_unique<Server>(db_, options);
    server_->start();
  }

  ~NetServerTest() override { server_->stop(); }

  RemoteConnection client() {
    return RemoteConnection("127.0.0.1", server_->port());
  }

  TempDir dir_;
  sql::Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, PingAndBasicDdl) {
  RemoteConnection remote = client();
  remote.ping();
  EXPECT_FALSE(remote.has_table("kv"));
  remote.create_table("kv", kv_schema());
  remote.create_index("kv", "tag");
  EXPECT_TRUE(remote.has_table("kv"));
  EXPECT_EQ(remote.row_count("kv"), 0u);

  sql::Schema schema = remote.table_schema("kv");
  ASSERT_EQ(schema.columns().size(), 3u);
  EXPECT_EQ(schema.columns()[1].name, "tag");
}

TEST_F(NetServerTest, InsertBatchScanAndTagScan) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());
  remote.create_index("kv", "tag");

  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 10),
                    sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
  }
  std::vector<int64_t> ids = remote.insert_batch("kv", rows);
  ASSERT_EQ(ids.size(), 100u);
  EXPECT_EQ(remote.row_count("kv"), 100u);

  size_t scanned = 0;
  remote.scan("kv", [&](const sql::Row& row) {
    ASSERT_EQ(row.size(), 3u);
    ++scanned;
  });
  EXPECT_EQ(scanned, 100u);

  // The dedicated multi-probe opcode must agree with SQL-text execution.
  sql::ResultSet via_tag_scan =
      remote.tag_scan("kv", "tag", {3, 7}, /*star=*/false);
  sql::ResultSet via_sql =
      remote.execute("SELECT id FROM kv WHERE tag IN (3, 7)");
  EXPECT_EQ(via_tag_scan.rows, via_sql.rows);
  EXPECT_EQ(via_tag_scan.rows.size(), 20u);

  sql::ResultSet star = remote.tag_scan("kv", "tag", {3}, /*star=*/true);
  ASSERT_EQ(star.rows.size(), 10u);
  EXPECT_EQ(star.rows[0].size(), 3u);
}

// Every tag scan executes the statement core::tag_scan_stmt() builds, so
// the in-process and the wire transport return what SQL-text execution of
// the same query returns, executor counters included. An empty tag list has
// no SQL text (the parser rejects "IN ()"); both transports give the same
// empty result for it.
TEST_F(NetServerTest, TagScanMatchesSqlTextLocallyAndRemotely) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());
  remote.create_index("kv", "tag");
  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 10),
                    sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
  }
  remote.insert_batch("kv", rows);
  core::LocalTransport local(db_);

  auto expect_same = [](const sql::ResultSet& got, const sql::ResultSet& want) {
    EXPECT_EQ(got.columns, want.columns);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.index_probes, want.index_probes);
    EXPECT_EQ(got.heap_fetches, want.heap_fetches);
    EXPECT_EQ(got.used_index, want.used_index);
  };
  // Unsorted, with a duplicate and a tag no row carries.
  const std::vector<uint64_t> tags = {7, 3, 3, 42};
  for (bool star : {false, true}) {
    SCOPED_TRACE(star ? "SELECT *" : "SELECT id");
    sql::ResultSet via_sql =
        local.execute(core::tag_scan_sql("KV", "Tag", tags, star));
    EXPECT_EQ(via_sql.rows.size(), 12u);
    expect_same(local.tag_scan("KV", "Tag", tags, star), via_sql);
    expect_same(remote.tag_scan("KV", "Tag", tags, star), via_sql);

    EXPECT_THROW(local.execute(core::tag_scan_sql("kv", "tag", {}, star)),
                 SqlError);
    sql::ResultSet empty = local.tag_scan("kv", "tag", {}, star);
    EXPECT_TRUE(empty.rows.empty());
    EXPECT_EQ(empty.heap_fetches, 0u);
    expect_same(remote.tag_scan("kv", "tag", {}, star), empty);
  }
}

TEST_F(NetServerTest, ServerErrorsRethrowSameType) {
  RemoteConnection remote = client();
  remote.ping();  // lazy connect happens here
  uint64_t sessions_before = server_->sessions_accepted();
  // Parse failure server-side must surface as SqlError client-side, and the
  // session must remain usable afterwards.
  EXPECT_THROW(remote.execute("SELEC id FROM nope"), SqlError);
  EXPECT_THROW(remote.row_count("missing_table"), SqlError);
  remote.ping();
  EXPECT_FALSE(remote.has_table("still_alive"));
  // Execution errors are not protocol errors, and the same TCP session
  // carried every request — no silent reconnects.
  EXPECT_EQ(server_->protocol_errors(), 0u);
  EXPECT_EQ(server_->sessions_accepted(), sessions_before);
}

// A kExecSql request is routed by its parsed statement. A SELECT (EXPLAIN
// included, in any case, after leading blanks) reads, so a repeat of its
// idempotency key runs it again; an INSERT in either case writes, so a
// repeat replays the recorded answer instead of inserting twice; text that
// does not parse gets its SqlError and changes nothing.
TEST_F(NetServerTest, ExecSqlIsRoutedByItsParsedStatement) {
  RemoteConnection remote = client();
  remote.execute("CREATE TABLE n (id INTEGER PRIMARY KEY, v INTEGER)");
  remote.execute("CREATE INDEX i_v ON n (v)");
  uint8_t next_key = 0;
  // Sends `sql` twice, back to back, under one idempotency key; returns
  // both responses.
  auto send_twice = [&](const std::string& sql) {
    RequestExt ext;
    ext.key.fill(++next_key);
    WireWriter w;
    w.string(sql);
    const Bytes frame = encode_request_frame(Opcode::kExecSql, w.bytes(), ext);
    return send_back_to_back(server_->port(), {frame, frame});
  };

  uint64_t hits = server_->dedup_hits();
  for (const auto& resp :
       send_twice("  ExPlAiN select id FROM n WHERE v = 10")) {
    ASSERT_EQ(resp.opcode, Opcode::kOkResult);
    WireReader r(resp.payload);
    sql::ResultSet rs = decode_result_set(r);
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.columns, std::vector<std::string>{"plan"});
    EXPECT_EQ(rs.rows[0][0].as_text().rfind("multi-probe index scan", 0), 0u)
        << rs.rows[0][0].as_text();
  }
  EXPECT_EQ(server_->dedup_hits(), hits);

  int64_t id = 0;
  for (const char* insert : {"insert into n values (%, 10)",
                             "INSERT INTO n VALUES (%, 20)"}) {
    std::string sql = insert;
    sql.replace(sql.find('%'), 1, std::to_string(++id));
    for (const auto& resp : send_twice(sql)) {
      ASSERT_EQ(resp.opcode, Opcode::kOkResult) << sql;
      WireReader r(resp.payload);
      EXPECT_EQ(decode_result_set(r).rows_affected, 1u) << sql;
    }
    EXPECT_EQ(server_->dedup_hits(), ++hits) << sql;
    EXPECT_EQ(remote.row_count("n"), static_cast<uint64_t>(id)) << sql;
  }

  for (const auto& resp : send_twice("selectx 1")) {
    ASSERT_EQ(resp.opcode, Opcode::kError);
    WireReader r(resp.payload);
    EXPECT_EQ(static_cast<StatusCode>(r.u16()), StatusCode::kSql);
  }
  EXPECT_THROW(remote.execute("selectx 1"), SqlError);
  EXPECT_EQ(server_->dedup_hits(), hits);
  EXPECT_EQ(server_->protocol_errors(), 0u);
  EXPECT_EQ(remote.row_count("n"), 2u);
}

// A response larger than a frame may carry fails its request once, with a
// typed error, whichever side's limit it crosses; the request is never run
// again and the connection keeps serving. The server here allows 2 MiB and
// the first client 1 MiB, so a 1.5 MB answer crosses only the client's
// limit and a 2.7 MB one crosses the server's.
TEST(NetServerFrameLimit, OversizedResponseFailsOnceWithATypedError) {
  TempDir dir;
  sql::Database db(dir.str());
  db.create_table("t", kv_schema());
  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 900; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 7),
                    sql::Value::blob(Bytes(3000, static_cast<uint8_t>(i)))});
  }
  db.insert_batch("t", rows);
  ServerOptions server_options;
  server_options.max_frame_bytes = 2u << 20;
  Server server(db, server_options);
  server.start();

  RemoteOptions small;
  small.max_frame_bytes = 1u << 20;
  RemoteConnection narrow("127.0.0.1", server.port(), small);
  narrow.ping();
  uint64_t frames = server.frames_served();
  EXPECT_THROW(narrow.execute("SELECT * FROM t LIMIT 500"),
               FrameTooLargeError);
  EXPECT_EQ(server.frames_served(), frames + 1);
  EXPECT_EQ(narrow.stats().retries, 0u);
  narrow.ping();  // a fresh channel replaces the poisoned one
  EXPECT_EQ(narrow.execute("SELECT id FROM t LIMIT 3").rows.size(), 3u);

  RemoteConnection wide("127.0.0.1", server.port());
  wide.ping();
  const uint64_t sessions = server.sessions_accepted();
  frames = server.frames_served();
  try {
    wide.execute("SELECT * FROM t");
    ADD_FAILURE() << "a 2.7 MB response crossed a 2 MiB frame limit";
  } catch (const RetriesExhaustedError& e) {
    ADD_FAILURE() << "retried: " << e.what();
  } catch (const NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("frame limit"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.frames_served(), frames + 1);
  EXPECT_EQ(wide.stats().retries, 0u);
  wide.ping();
  EXPECT_EQ(server.sessions_accepted(), sessions);  // same session
  EXPECT_EQ(server.protocol_errors(), 0u);
  server.stop();
}

// A request frame over the server's frame limit is refused before its
// payload is read: the server answers kNetwork, then closes the session.
// The call fails once, without a retry, and the client drops that channel,
// so the next call opens a fresh session instead of failing on the dead
// one and spending a retry on it.
TEST(NetServerFrameLimit, OversizedRequestFailsOnceAndDropsItsChannel) {
  TempDir dir;
  sql::Database db(dir.str());
  db.create_table("kv", kv_schema());
  ServerOptions server_options;
  server_options.max_frame_bytes = 1u << 20;
  Server server(db, server_options);
  server.start();

  RemoteConnection remote("127.0.0.1", server.port());
  remote.ping();
  const uint64_t sessions = server.sessions_accepted();
  const std::vector<sql::Row> rows(
      300, {sql::Value::int64(1), sql::Value::int64(0),
            sql::Value::blob(Bytes(4000, 0xEE))});  // ~1.2 MB of payload
  try {
    remote.insert_batch("kv", rows);
    ADD_FAILURE() << "a 1.2 MB request crossed a 1 MiB frame limit";
  } catch (const RetriesExhaustedError& e) {
    ADD_FAILURE() << "retried: " << e.what();
  } catch (const NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(remote.stats().retries, 0u);
  remote.ping();
  EXPECT_EQ(remote.stats().retries, 0u);
  EXPECT_EQ(server.sessions_accepted(), sessions + 1);
  EXPECT_EQ(db.table("kv").row_count(), 0u);
  server.stop();
}

// A server closes a connection idle past read_timeout_ms. The pool must
// notice before reusing that channel: the next call opens a fresh session
// instead of failing on the closed one and spending a retry on it.
TEST(NetChannelPool, IdleReapedChannelIsNotReused) {
  TempDir dir;
  sql::Database db(dir.str());
  ServerOptions server_options;
  server_options.read_timeout_ms = 200;
  Server server(db, server_options);
  server.start();

  RemoteConnection remote("127.0.0.1", server.port());
  remote.ping();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  remote.ping();
  EXPECT_EQ(remote.stats().retries, 0u);
  EXPECT_EQ(server.sessions_accepted(), 2u);
  server.stop();
}

// Each call is one request frame on one session, even for a table this
// connection did not create.
TEST_F(NetServerTest, OneServerSendsOneFramePerCall) {
  {
    RemoteConnection setup = client();
    setup.create_table("kv", kv_schema());
    setup.create_index("kv", "tag");
  }
  RemoteConnection remote = client();  // attach-style: nothing cached
  remote.ping();                       // lazy connect happens here
  const uint64_t sessions_before = server_->sessions_accepted();
  auto expect_one_frame = [&](const char* what, const auto& call) {
    const uint64_t before = server_->frames_served();
    call();
    EXPECT_EQ(server_->frames_served(), before + 1) << what;
  };

  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 30; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 3),
                    sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
  }
  expect_one_frame("insert_batch", [&] {
    EXPECT_EQ(remote.insert_batch("kv", rows).size(), rows.size());
  });
  expect_one_frame("tag_scan ids", [&] {
    EXPECT_EQ(remote.tag_scan("kv", "tag", {1}, false).rows.size(), 10u);
  });
  expect_one_frame("tag_scan star", [&] {
    EXPECT_EQ(remote.tag_scan("kv", "tag", {0, 2}, true).rows.size(), 20u);
  });
  for (bool star : {false, true}) {
    expect_one_frame("tag_scan empty", [&] {
      sql::ResultSet rs = remote.tag_scan("kv", "tag", {}, star);
      EXPECT_TRUE(rs.rows.empty());
      EXPECT_FALSE(rs.columns.empty());
    });
  }
  expect_one_frame("execute", [&] {
    EXPECT_EQ(remote.execute("SELECT id FROM kv WHERE tag = 2").rows.size(),
              10u);
  });
  EXPECT_EQ(server_->sessions_accepted(), sessions_before);
}

// A stand-in for wre_server that answers exactly one request frame with a
// fixed response, then holds the session open until the client hangs up.
class OneShotServer {
 public:
  explicit OneShotServer(Frame reply) : listener_("127.0.0.1", 0) {
    thread_ = std::thread([this, reply = std::move(reply)] {
      std::optional<Socket> sock = listener_.accept();
      if (!sock) return;
      try {
        Bytes head_bytes(kRequestHeadBytes);
        sock->recv_all(head_bytes.data(), head_bytes.size());
        RequestHead head;
        decode_request_head(head_bytes, kDefaultMaxFrameBytes, &head);
        Bytes payload(head.payload_length);
        sock->recv_all(payload.data(), payload.size());
        sock->send_all(encode_frame(reply.opcode, reply.payload));
        uint8_t byte = 0;
        (void)sock->recv_all_or_eof(&byte, 1);
      } catch (const NetworkError&) {
        // The client hung up mid-exchange; the test reports what it saw.
      }
    });
  }
  ~OneShotServer() {
    listener_.close();
    thread_.join();
  }

  uint16_t port() const { return listener_.port(); }

 private:
  Listener listener_;
  std::thread thread_;
};

// insert_batch checks the id count the server returns against the rows it
// sent, before it allocates anything from that count.
TEST(RemoteInsertBatch, RejectsAWrongIdCountFromTheServer) {
  std::vector<sql::Row> rows(3, sql::Row{sql::Value::int64(1)});
  auto reply_with_ids = [](uint32_t count, size_t ids_sent) {
    WireWriter w;
    w.u32(count);
    for (size_t i = 0; i < ids_sent; ++i) w.i64(static_cast<int64_t>(i));
    return Frame{Opcode::kOkIds, std::move(w.bytes())};
  };
  for (uint32_t count : {1u, 5u, 0xFFFFFFFFu}) {
    SCOPED_TRACE("count=" + std::to_string(count));
    OneShotServer fake(reply_with_ids(count, std::min<uint32_t>(count, 5)));
    RemoteOptions options;
    options.retry.max_attempts = 1;
    RemoteConnection remote("127.0.0.1", fake.port(), options);
    EXPECT_THROW(remote.insert_batch("kv", rows), NetworkError);
  }
}

TEST_F(NetServerTest, MalformedFramesAreSurvivable) {
  uint64_t errors_before = server_->protocol_errors();

  // 1. Garbage magic.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes junk = {'X', 'Y', 1, 1, 0, 0, 0, 0};
    s.send_all(junk);
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kError);
    Bytes body(fh.payload_length);
    s.recv_all(body.data(), body.size());
    WireReader r(body);
    EXPECT_EQ(static_cast<StatusCode>(r.u16()), StatusCode::kNetwork);
  }

  // 2. Unsupported protocol version.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes junk = {'W', 'R', 42, 1, 0, 0, 0, 0};
    s.send_all(junk);
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
              Opcode::kError);
  }

  // 3. Oversized declared length (2x the server's 1 MiB cap): refused
  //    before the payload is read or allocated.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes frame = {'W', 'R', kWireVersionExt, 1, 0, 0, 32, 0};  // 2 MiB, LE
    s.send_all(frame);
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
              Opcode::kError);
  }

  // 4. Unknown opcode: the frame boundary is intact, so the server answers
  //    kError and the SAME session keeps serving well-formed requests.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    s.send_all(encode_request_frame(static_cast<Opcode>(0x6E), {}, {}));
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kError);
    Bytes body(fh.payload_length);
    s.recv_all(body.data(), body.size());

    s.send_all(encode_request_frame(Opcode::kPing, {}, {}));
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
              Opcode::kOkPong);
  }

  // 5. Truncated header: client disconnects mid-header.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes partial = {'W', 'R', kWireVersionExt};
    s.send_all(partial);
    s.close();
  }

  // 6. Payload shorter than declared (valid header, then hang up).
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    WireWriter w;
    w.string("SELECT 1");
    Bytes frame = encode_request_frame(Opcode::kExecSql, w.bytes(), {});
    frame.resize(frame.size() - 4);
    s.send_all(frame);
    s.close();
  }

  // 7. Structurally bad payload: a request whose body fails bounds checks.
  //    Also recoverable — the full payload was consumed.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    WireWriter w;
    w.u32(0xffffffffu);  // string length far beyond the payload
    s.send_all(encode_request_frame(Opcode::kExecSql, w.bytes(), {}));
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kError);
    Bytes body(fh.payload_length);
    s.recv_all(body.data(), body.size());

    s.send_all(encode_request_frame(Opcode::kPing, {}, {}));
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
              Opcode::kOkPong);
  }

  // 8. Request framing other than the one form: a version-1 request and a
  //    23-byte (tenant-less) extension each get kNetwork, then EOF.
  {
    const Bytes v1 = encode_frame(Opcode::kPing, {});
    Bytes ext23 = encode_request_frame(Opcode::kPing, {}, {});
    ext23.resize(kFrameHeaderBytes + 1 + 23);
    ext23[kFrameHeaderBytes] = 23;
    ext23[kFrameHeaderBytes + 1] = 0x01;  // key only, no tenant
    for (const Bytes& frame : {v1, ext23}) {
      Socket s = Socket::connect("127.0.0.1", server_->port());
      s.set_recv_timeout_ms(5000);
      s.send_all(frame);
      uint8_t header[kFrameHeaderBytes];
      ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
      FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
      EXPECT_EQ(fh.opcode, Opcode::kError);
      Bytes body(fh.payload_length);
      s.recv_all(body.data(), body.size());
      WireReader r(body);
      EXPECT_EQ(static_cast<StatusCode>(r.u16()), StatusCode::kNetwork);
      uint8_t byte = 0;
      EXPECT_FALSE(s.recv_all_or_eof(&byte, 1)) << "session left open";
    }
  }

  EXPECT_GE(server_->protocol_errors(), errors_before + 7);

  // After all of the above the server still answers a well-formed client.
  RemoteConnection remote = client();
  remote.ping();
  EXPECT_FALSE(remote.has_table("kv"));
}

// Opcodes outside the request range — the retired 0x0B, the next unused
// 0x0C, the zero byte, and a response opcode — are protocol errors the
// server answers with kNetwork on the same session, which keeps serving.
TEST_F(NetServerTest, UnassignedAndResponseOpcodesAreProtocolErrors) {
  Socket s = Socket::connect("127.0.0.1", server_->port());
  uint8_t header[kFrameHeaderBytes];
  for (uint8_t op : {0x0B, 0x0C, 0x00, 0x80}) {
    SCOPED_TRACE("opcode " + std::to_string(op));
    const uint64_t errors_before = server_->protocol_errors();
    s.send_all(encode_request_frame(static_cast<Opcode>(op), {}, {}));
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kError);
    Bytes body(fh.payload_length);
    s.recv_all(body.data(), body.size());
    WireReader r(body);
    EXPECT_EQ(static_cast<StatusCode>(r.u16()), StatusCode::kNetwork);
    EXPECT_EQ(server_->protocol_errors(), errors_before + 1);
  }
  s.send_all(encode_request_frame(Opcode::kPing, {}, {}));
  ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
  EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
            Opcode::kOkPong);
}

TEST_F(NetServerTest, GracefulDrainClosesIdleSessions) {
  RemoteConnection remote = client();
  remote.ping();

  // An idle raw connection: drain must wake and close it promptly. The
  // close is a FIN if a session picked the connection up, or an RST if it
  // was still in the accept backlog when the listener shut down — either
  // way the client sees the connection die instead of hanging.
  Socket idle = Socket::connect("127.0.0.1", server_->port());
  server_->stop();

  uint8_t byte;
  bool connection_closed = false;
  try {
    connection_closed = !idle.recv_all_or_eof(&byte, 1);  // clean EOF
  } catch (const NetworkError&) {
    connection_closed = true;  // reset out of the accept backlog
  }
  EXPECT_TRUE(connection_closed);
  EXPECT_FALSE(server_->running());
}

TEST_F(NetServerTest, IdempotentRequestsRetryAcrossReconnect) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());
  EXPECT_TRUE(remote.has_table("kv"));

  // Kill the server, restart on the same port: the pooled connection is now
  // stale. An idempotent request must reconnect and succeed transparently.
  uint16_t port = server_->port();
  server_->stop();
  server_.reset();
  ServerOptions options;
  options.port = port;
  server_ = std::make_unique<Server>(db_, options);
  server_->start();

  EXPECT_TRUE(remote.has_table("kv"));
  EXPECT_EQ(remote.row_count("kv"), 0u);
}

TEST_F(NetServerTest, MutatingRequestsRetrySafelyAcrossReconnect) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());

  uint16_t port = server_->port();
  server_->stop();
  server_.reset();
  ServerOptions options;
  options.port = port;
  server_ = std::make_unique<Server>(db_, options);
  server_->start();

  // The restart closed the pooled channel; the pool sees that before the
  // write is sent, so the write goes out once on a fresh session and lands
  // exactly once. (A write whose connection dies mid-request is retried
  // under its idempotency key: NetChaos.RandomizedFaultSchedules*.)
  std::vector<sql::Row> rows = {{sql::Value::int64(1), sql::Value::int64(2),
                                 sql::Value::blob(Bytes{3})}};
  EXPECT_EQ(remote.insert_batch("kv", rows).size(), 1u);
  EXPECT_EQ(remote.row_count("kv"), 1u);
  EXPECT_EQ(remote.stats().retries, 0u);
}

TEST_F(NetServerTest, DuplicateIdempotencyKeyReplaysCachedResponse) {
  {
    RemoteConnection setup = client();
    setup.create_table("kv", kv_schema());
  }

  // Hand-roll an insert frame and send it twice over a raw socket — the
  // wire-level shape of a client retrying after a lost response. The server
  // must execute once and replay the recorded response byte-for-byte.
  WireWriter w;
  w.string("kv");
  w.u32(1);
  w.row({sql::Value::int64(7), sql::Value::int64(8),
         sql::Value::blob(Bytes{9})});
  RequestExt ext;
  for (size_t i = 0; i < ext.key.size(); ++i) {
    ext.key[i] = static_cast<uint8_t>(0xA0 + i);
  }
  Bytes frame = encode_request_frame(Opcode::kInsertBatch, w.bytes(), ext);

  auto roundtrip_raw = [&](Socket& s) {
    s.send_all(frame);
    uint8_t header[kFrameHeaderBytes];
    s.recv_all(header, sizeof(header));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kOkIds);
    Bytes body(fh.payload_length);
    if (fh.payload_length > 0) s.recv_all(body.data(), body.size());
    return body;
  };

  Socket s = Socket::connect("127.0.0.1", server_->port());
  Bytes first = roundtrip_raw(s);
  Bytes second = roundtrip_raw(s);
  EXPECT_EQ(first, second);
  EXPECT_EQ(server_->dedup_hits(), 1u);

  RemoteConnection remote = client();
  EXPECT_EQ(remote.row_count("kv"), 1u);  // executed once, not twice
}

TEST_F(NetServerTest, ConcurrentClientsSeeConsistentResults) {
  {
    RemoteConnection setup = client();
    setup.create_table("kv", kv_schema());
    setup.create_index("kv", "tag");
    std::vector<sql::Row> rows;
    for (int64_t i = 0; i < 200; ++i) {
      rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 4),
                      sql::Value::blob(Bytes{0})});
    }
    setup.insert_batch("kv", rows);
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        RemoteConnection remote = client();
        for (int i = 0; i < 25; ++i) {
          uint64_t tag = static_cast<uint64_t>((t + i) % 4);
          auto rs = remote.tag_scan("kv", "tag", {tag}, /*star=*/false);
          if (rs.rows.size() != 50u) failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->sessions_accepted(), static_cast<uint64_t>(kThreads));
}

// One RemoteConnection shared by 4 threads: each call leases a channel of
// its own, so the pool opens at most one session per thread, and a session
// never carries a second request while one is in flight — every tag_scan
// gets exactly its own rows, and each call is exactly one frame.
TEST_F(NetServerTest, SharedConnectionLeasesOneChannelPerCall) {
  {
    RemoteConnection setup = client();
    setup.create_table("kv", kv_schema());
    setup.create_index("kv", "tag");
    std::vector<sql::Row> rows;
    for (int64_t i = 0; i < 200; ++i) {
      rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 4),
                      sql::Value::blob(Bytes{0})});
    }
    setup.insert_batch("kv", rows);
  }

  RemoteConnection shared = client();
  const uint64_t sessions_before = server_->sessions_accepted();
  const uint64_t frames_before = server_->frames_served();
  constexpr int kThreads = 4;
  constexpr int kCalls = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int i = 0; i < kCalls; ++i) {
          const int64_t tag = (t + i) % 4;
          sql::ResultSet rs = shared.tag_scan(
              "kv", "tag", {static_cast<uint64_t>(tag)}, /*star=*/false);
          bool right = rs.rows.size() == 50u;
          for (const sql::Row& row : rs.rows) {
            right = right && row[0].as_int64() % 4 == tag;
          }
          if (!right) failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const uint64_t sessions = server_->sessions_accepted() - sessions_before;
  EXPECT_GE(sessions, 1u);
  EXPECT_LE(sessions, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(server_->frames_served() - frames_before,
            static_cast<uint64_t>(kThreads * kCalls));
  EXPECT_EQ(shared.stats().requests, static_cast<uint64_t>(kThreads * kCalls));
  EXPECT_EQ(shared.stats().retries, 0u);
}

TEST(NetServerIsolation, StalledClientDoesNotDelayOthers) {
  // Regression for the thread-per-connection failure mode: a client that
  // requests a response far larger than the socket buffers hold and then
  // never reads must not hold a worker — or the event thread — hostage
  // while a concurrent client runs under a tight deadline.
  TempDir dir;
  sql::Database db(dir.str());
  ServerOptions options;
  options.worker_threads = 1;  // one stalled worker would stall everyone
  options.read_timeout_ms = 5000;
  Server server(db, options);
  server.start();

  {
    RemoteConnection setup("127.0.0.1", server.port());
    setup.create_table("kv", kv_schema());
    std::vector<sql::Row> rows;
    for (int64_t i = 0; i < 8192; ++i) {
      rows.push_back({sql::Value::int64(i), sql::Value::int64(0),
                      sql::Value::blob(Bytes(2048, 0xCD))});
    }
    setup.insert_batch("kv", rows);  // 16 MiB of payload
  }

  // The stall: ask for the full table, read nothing.
  Socket stalled = Socket::connect("127.0.0.1", server.port());
  WireWriter w;
  w.string("kv");
  stalled.send_all(encode_request_frame(Opcode::kScanTable, w.bytes(), {}));

  // A concurrent client with no retries and a short response timeout: if
  // the stalled scan blocked the worker or the event loop, these fail.
  RemoteOptions strict;
  strict.response_timeout_ms = 2000;
  strict.retry.max_attempts = 1;
  RemoteConnection probe("127.0.0.1", server.port(), strict);
  for (int i = 0; i < 20; ++i) {
    probe.ping();
    EXPECT_EQ(probe.row_count("kv"), 8192u);
  }
  // Release the stalled connection before draining — a drain flushes what
  // it can, and this client will never read its 16 MiB.
  stalled.close();
  server.stop();
}

// ---------------------------------------------------------------------------
// Seeded mutation of request frames: every request opcode's valid frame,
// with bytes flipped, cut off or appended, must decode or fail with a typed
// wre::Error — offline, and against a live server that keeps serving.

/// A valid request frame for each request opcode; `seq` sets the
/// idempotency key, so the dedup cache never answers a mutated mutation
/// from a recorded response.
std::vector<Bytes> valid_request_frames(uint64_t seq) {
  RequestExt ext;
  ext.deadline_ms = 5000;
  ext.tenant_id = 7;
  for (size_t i = 0; i < 8; ++i) {
    ext.key[i] = static_cast<uint8_t>(seq >> (8 * i));
  }
  std::vector<Bytes> frames;
  auto add = [&](Opcode op, WireWriter w) {
    frames.push_back(encode_request_frame(op, w.bytes(), ext));
  };
  WireWriter w;
  add(Opcode::kPing, w);
  w = {};
  w.string("SELECT id FROM kv WHERE tag = 1");
  add(Opcode::kExecSql, w);
  w = {};
  w.string("kv");
  w.u32(2);
  for (int64_t i = 0; i < 2; ++i) {
    w.row({sql::Value::int64(1000 + static_cast<int64_t>(seq) * 2 + i),
           sql::Value::int64(1), sql::Value::blob(Bytes{1, 2, 3})});
  }
  add(Opcode::kInsertBatch, w);
  w = {};
  w.string("fz");
  w.schema(kv_schema());
  add(Opcode::kCreateTable, w);
  w = {};
  w.string("kv");
  w.string("tag");
  add(Opcode::kCreateIndex, w);
  for (Opcode op : {Opcode::kHasTable, Opcode::kRowCount,
                    Opcode::kTableSchema, Opcode::kScanTable}) {
    w = {};
    w.string("kv");
    add(op, w);
  }
  w = {};
  w.string("kv");
  w.string("tag");
  w.u8(1);
  w.u32(3);
  for (uint64_t tag : {0, 1, 2}) w.u64(tag);
  add(Opcode::kTagScan, w);
  return frames;
}

/// Flips 1-4 bits, cuts the frame short, or appends 1-64 random bytes.
/// Half the flips land in the 40-byte request head, where framing lives.
Bytes mutate(Bytes frame, std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      for (uint64_t n = 1 + rng() % 4; n > 0; --n) {
        const size_t span = rng() % 2 == 0 ? kRequestHeadBytes : frame.size();
        frame[rng() % span] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
      break;
    case 1:
      frame.resize(rng() % frame.size());
      break;
    default:
      for (uint64_t n = 1 + rng() % 64; n > 0; --n) {
        frame.push_back(static_cast<uint8_t>(rng()));
      }
  }
  return frame;
}

/// Decodes every whole request frame in `in` the way the server does: the
/// request head, then the opcode's payload fields through WireReader (and
/// a kExecSql statement through the SQL parser). Throws what they throw.
void decode_requests(ByteView in, size_t max_frame_bytes) {
  RequestHead head;
  while (decode_request_head(in, max_frame_bytes, &head) &&
         in.size() - kRequestHeadBytes >= head.payload_length) {
    WireReader r(in.subspan(kRequestHeadBytes, head.payload_length));
    in = in.subspan(kRequestHeadBytes + head.payload_length);
    switch (head.opcode) {
      case Opcode::kPing:
        break;
      case Opcode::kExecSql:
        (void)sql::parse_statement(r.string());
        break;
      case Opcode::kInsertBatch: {
        r.string();
        for (uint32_t n = r.u32(); n > 0; --n) r.row();
        break;
      }
      case Opcode::kCreateTable:
        r.string();
        r.schema();
        break;
      case Opcode::kCreateIndex:
        r.string();
        r.string();
        break;
      case Opcode::kTagScan: {
        r.string();
        r.string();
        r.u8();
        for (uint32_t n = r.u32(); n > 0; --n) r.u64();
        break;
      }
      case Opcode::kHasTable:
      case Opcode::kRowCount:
      case Opcode::kTableSchema:
      case Opcode::kScanTable:
        r.string();
        break;
      default:
        throw NetworkError("not a request opcode");
    }
    r.expect_end();
  }
}

TEST(WireMutation, MutatedRequestFramesDecodeOrFailTyped) {
  constexpr int kIterations = 2000;
  constexpr int kLiveEvery = 10;  // every 10th frame also goes to a server
  TempDir dir;
  sql::Database db(dir.str());
  db.create_table("kv", kv_schema());
  ServerOptions options;
  options.worker_threads = 2;
  options.read_timeout_ms = 5000;
  options.max_frame_bytes = 1u << 20;
  Server server(db, options);
  server.start();

  std::mt19937_64 rng(20240611);
  int decoded = 0;
  int refused = 0;
  int responses = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::vector<Bytes> valid =
        valid_request_frames(static_cast<uint64_t>(i));
    const Bytes frame = mutate(valid[rng() % valid.size()], rng);
    SCOPED_TRACE("iteration " + std::to_string(i));
    try {
      decode_requests(frame, options.max_frame_bytes);
      ++decoded;
    } catch (const Error&) {
      ++refused;
    }
    if (i % kLiveEvery != 0) continue;
    // Live: one fresh connection per frame, half-closed after the frame so
    // a cut-short one ends in EOF. Every answer must be a whole response
    // frame, and the server must close the session rather than hang.
    Socket s = Socket::connect("127.0.0.1", server.port());
    s.set_recv_timeout_ms(5000);
    try {
      s.send_all(frame);
    } catch (const NetworkError&) {
      // Closed on a framing fault before all of the frame went out.
    }
    ::shutdown(s.fd(), SHUT_WR);
    try {
      uint8_t header[kFrameHeaderBytes];
      while (s.recv_all_or_eof(header, sizeof(header))) {
        FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
        EXPECT_EQ(fh.version, kWireVersion);
        EXPECT_GE(static_cast<uint8_t>(fh.opcode), 0x80);
        Bytes body(fh.payload_length);
        s.recv_all(body.data(), body.size());
        ++responses;
      }
    } catch (const NetworkError& e) {
      // A reset is a clean close too: the server closed with unread bytes.
      EXPECT_NE(std::string(e.what()).find("reset"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(responses, 0);

  RemoteConnection remote("127.0.0.1", server.port());
  remote.ping();
  EXPECT_TRUE(remote.has_table("kv"));
  server.stop();
}

// ---------------------------------------------------------------------------
// Channel semantics against a live server.

TEST(Channel, TransportFailurePoisonsEveryLaterCall) {
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  Channel ch(Endpoint{"127.0.0.1", server.port()}, kDefaultMaxFrameBytes,
             /*recv_timeout_ms=*/2000);
  EXPECT_EQ(ch.call(Opcode::kPing, {}, {}).opcode, Opcode::kOkPong);
  server.stop();  // the drain closes the idle session
  std::string first;
  try {
    ch.call(Opcode::kPing, {}, {});
    FAIL() << "channel survived server shutdown";
  } catch (const NetworkError& e) {
    first = e.what();
  }
  EXPECT_TRUE(ch.dead());
  // Every later call fails fast with the same reason, without reconnecting.
  try {
    ch.call(Opcode::kPing, {}, {});
    FAIL() << "a poisoned channel served a call";
  } catch (const NetworkError& e) {
    EXPECT_EQ(e.what(), first);
  }
}

// ---------------------------------------------------------------------------
// Graceful drain of frames a raw client sent back to back.

/// Sends `n` pings back to back, stops `server` once they are on the wire,
/// and returns how many came back answered.
int pings_answered_across_a_drain(Server& server, int n) {
  const std::vector<Bytes> pings(
      static_cast<size_t>(n), encode_request_frame(Opcode::kPing, {}, {}));
  std::thread stopper;
  std::vector<Frame> responses;
  try {
    responses = send_back_to_back(server.port(), pings, [&] {
      stopper = std::thread([&server] { server.stop(); });
    });
  } catch (const std::exception& e) {
    ADD_FAILURE() << "read: " << e.what();
  }
  if (stopper.joinable()) stopper.join();  // or ~thread would terminate
  return static_cast<int>(
      std::count_if(responses.begin(), responses.end(), [](const Frame& f) {
        return f.opcode == Opcode::kOkPong;
      }));
}

TEST(NetServerDrain, DrainAnswersAlreadySubmittedPipeline) {
  // SIGTERM mid-burst: every request the client already put on the wire
  // is executed and flushed before the connection closes — a drain is a
  // barrier, not a guillotine.
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  EXPECT_EQ(pings_answered_across_a_drain(server, 50), 50);
}

TEST(NetServerDrain, DrainAnswersPipelineBeyondTheQueueCap) {
  // A burst longer than the request queue older servers capped at 128
  // frames: the server answers one frame at a time, so the rest waits in
  // its input buffer and the socket, and the drain still answers them all.
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  EXPECT_EQ(pings_answered_across_a_drain(server, 300), 300);
}

// ---------------------------------------------------------------------------
// wre_server's command line, against the real binary.

#ifndef WRE_SERVER_BIN_DEFAULT
#define WRE_SERVER_BIN_DEFAULT "../src/net/wre_server"
#endif

struct ServerExit {
  bool listened = false;  // printed LISTENING: it accepted the flags
  int code = -1;          // exit code; -1 if a signal ended it
  std::string err;        // what it wrote to stderr
};

/// Runs wre_server with `flags` until it exits or reports its port, for at
/// most 20 s. A server that comes up is sent SIGTERM (a clean drain exits
/// 0); one that neither exits nor comes up in time is killed.
ServerExit run_wre_server(const std::vector<std::string>& flags) {
  std::string bin = WRE_SERVER_BIN_DEFAULT;
  std::vector<std::string> args = {bin};
  args.insert(args.end(), flags.begin(), flags.end());
  int out[2];
  int err[2];
  if (::pipe(out) != 0 || ::pipe(err) != 0) {
    ADD_FAILURE() << "pipe failed";
    return {};
  }
  pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(err[1], STDERR_FILENO);
    for (int fd : {out[0], out[1], err[0], err[1]}) ::close(fd);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(err[1]);

  ServerExit result;
  bool exited = false;  // stdout hit EOF: the process is gone
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    pollfd pfd{out[0], POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    char c = 0;
    if (::read(out[0], &c, 1) <= 0) {
      exited = true;
      break;
    }
    if (c == '\n') {
      result.listened = line.rfind("LISTENING ", 0) == 0;
      break;
    }
    line.push_back(c);
  }
  if (!exited) ::kill(pid, result.listened ? SIGTERM : SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  char buf[4096];
  for (ssize_t n; (n = ::read(err[0], buf, sizeof(buf))) > 0;) {
    result.err.append(buf, static_cast<size_t>(n));
  }
  ::close(out[0]);
  ::close(err[0]);
  return result;
}

// Each value is negative, beyond what its option holds, or for a flag that
// does not exist; the server must refuse it before it opens the database.
// Every run also passes --threads=1, so none of them can start more than
// one worker even where a value is accepted by mistake.
TEST(WreServerFlags, RejectsNegativeAndUnrepresentableValues) {
  TempDir dir;
  for (const char* bad :
       {"--checkpoint-interval-ms=4294967296", "--checkpoint-interval-ms=-1",
        "--request-deadline-ms=4294967296", "--request-deadline-ms=-1",
        "--threads=4294967297", "--read-timeout-ms=2147483648",
        "--read-timeout-ms=-1", "--max-frame-mb=4096", "--max-frame-mb=0",
        "--max-connections=-1", "--port=65536", "--wal=2", "--columnar=-1",
        "--shard-count=3", "--shard-index=0", "--query-threads=1"}) {
    SCOPED_TRACE(bad);
    ServerExit r =
        run_wre_server({"--dir=" + dir.str(), "--port=0", "--threads=1", bad});
    EXPECT_FALSE(r.listened);
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("usage: wre_server"), std::string::npos) << r.err;
  }
}

TEST(WreServerFlags, AcceptsTheLargestValueEachOptionHolds) {
  TempDir dir;
  ServerExit r = run_wre_server(
      {"--dir=" + dir.str(), "--port=0", "--threads=1",
       "--checkpoint-interval-ms=4294967295",
       "--request-deadline-ms=4294967295", "--read-timeout-ms=2147483647",
       "--max-frame-mb=4095"});
  EXPECT_TRUE(r.listened) << r.err;
  EXPECT_EQ(r.code, 0) << r.err;
}

}  // namespace
