// Network chaos harness: drives a real client/server pair through seeded,
// randomized fault schedules (connection resets, torn writes, delayed
// frames, failing accepts) and asserts the end-to-end fault-tolerance
// contract of DESIGN.md §5.6:
//
//   * exactly-once ingest — an acknowledged batch is present exactly once,
//     an unacknowledged batch is all-or-nothing, and no row ever appears
//     twice no matter how many times the client retried;
//   * the server survives — after the storm it still answers, the accept
//     loop never died, and shutdown is clean;
//   * the client's retry machinery fails loudly and informatively when the
//     budget, attempt cap or overall deadline runs out.
//
// Every schedule is reproduced by its seed. The sweep size and base seed
// come from the environment so scripts/chaos_smoke.sh can widen the search
// without recompiling:
//
//   WRE_CHAOS_SCHEDULES=100 WRE_CHAOS_SEED=7 ./net_chaos_test
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/net/net_fault.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/sql/database.h"
#include "tests/test_util.h"

namespace wre::net {
namespace {

using wre::testing::TempDir;

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  try {
    return std::stoull(v);
  } catch (...) {
    return fallback;
  }
}

/// Disarms the process-wide injector on scope exit so a failing schedule
/// cannot poison the tests that follow it.
struct ChaosGuard {
  ~ChaosGuard() { NetFaultInjector::instance().reset(); }
};

/// No declared primary key: an uncertain batch (client exhausted its
/// retries without an ACK) may be re-sent by a *new* logical request in a
/// later scenario, and the invariants below are about occurrence counts,
/// not key conflicts.
sql::Schema chaos_schema() {
  return sql::Schema({{"seq", sql::ValueType::kInt64, false},
                      {"tag", sql::ValueType::kInt64, false},
                      {"body", sql::ValueType::kBlob, false}});
}

RemoteOptions aggressive_retry() {
  RemoteOptions ro;
  ro.retry.max_attempts = 10;
  ro.retry.initial_backoff_ms = 1;
  ro.retry.max_backoff_ms = 16;
  ro.retry.overall_deadline_ms = 20000;
  ro.retry.budget_tokens = 1000.0;
  return ro;
}

// ---------------------------------------------------------------------------
// The main sweep: randomized schedules, exactly-once ingest.

void run_one_schedule(uint64_t seed) {
  SCOPED_TRACE("chaos schedule seed=" + std::to_string(seed));
  ChaosGuard guard;

  TempDir dir("net_chaos");
  sql::Database db(dir.str());
  ServerOptions sopts;
  sopts.worker_threads = 4;
  sopts.read_timeout_ms = 5000;
  Server server(db, sopts);
  server.start();

  {
    RemoteConnection setup("127.0.0.1", server.port());
    setup.create_table("chaos", chaos_schema());
  }

  // Vary the mix per seed so the sweep covers reset-heavy, torn-heavy and
  // delay-heavy regimes; rate is per socket operation, and one roundtrip
  // crosses several, so even 5% bites most requests eventually.
  NetFaultInjector::Config cfg;
  cfg.seed = seed;
  cfg.rate = 0.05 + 0.05 * static_cast<double>(seed % 3);
  cfg.reset = true;
  cfg.torn = (seed % 2) == 0;
  cfg.delay_ms = (seed % 3) == 0 ? 2 : 0;
  NetFaultInjector::instance().arm(cfg);

  constexpr int kBatches = 12;
  constexpr int kRowsPerBatch = 5;
  std::vector<bool> acked(kBatches, false);
  {
    RemoteConnection remote("127.0.0.1", server.port(), aggressive_retry());
    for (int b = 0; b < kBatches; ++b) {
      std::vector<sql::Row> rows;
      for (int i = 0; i < kRowsPerBatch; ++i) {
        int64_t seq = b * 100 + i;
        rows.push_back({sql::Value::int64(seq), sql::Value::int64(b),
                        sql::Value::blob(Bytes{static_cast<uint8_t>(b)})});
      }
      try {
        remote.insert_batch("chaos", rows);
        acked[b] = true;
      } catch (const RetriesExhaustedError&) {
        // Uncertain: the batch may or may not have landed — but it must
        // not have landed twice, and must have landed atomically.
      }
    }
  }

  NetFaultInjector::instance().reset();

  // Verify through a fresh, fault-free client.
  RemoteConnection verify("127.0.0.1", server.port());
  verify.ping();  // the server survived the storm
  std::map<int64_t, int> seq_count;
  verify.scan("chaos", [&](const sql::Row& row) {
    seq_count[row[0].as_int64()] += 1;
  });

  for (const auto& [seq, count] : seq_count) {
    EXPECT_EQ(count, 1) << "row seq=" << seq << " ingested " << count
                        << " times — a retry double-applied";
  }
  for (int b = 0; b < kBatches; ++b) {
    int present = 0;
    for (int i = 0; i < kRowsPerBatch; ++i) {
      present += seq_count.count(b * 100 + i) ? 1 : 0;
    }
    if (acked[b]) {
      EXPECT_EQ(present, kRowsPerBatch)
          << "batch " << b << " was acknowledged but only " << present << "/"
          << kRowsPerBatch << " rows are present";
    } else {
      EXPECT_TRUE(present == 0 || present == kRowsPerBatch)
          << "batch " << b << " applied partially (" << present << "/"
          << kRowsPerBatch << " rows)";
    }
  }

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(NetChaos, RandomizedFaultSchedulesPreserveExactlyOnce) {
  uint64_t schedules = env_u64("WRE_CHAOS_SCHEDULES", 6);
  uint64_t base_seed = env_u64("WRE_CHAOS_SEED", 1);
  for (uint64_t s = 0; s < schedules; ++s) {
    run_one_schedule(base_seed + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Overload protection: admission control sheds, then recovers.

TEST(NetChaos, AdmissionControlShedsBeyondMaxConnections) {
  ChaosGuard guard;
  TempDir dir("net_overload");
  sql::Database db(dir.str());
  ServerOptions sopts;
  sopts.worker_threads = 4;
  sopts.read_timeout_ms = 5000;
  sopts.max_connections = 2;
  Server server(db, sopts);
  server.start();

  // Two idle connections occupy the admission budget.
  Socket idle1 = Socket::connect("127.0.0.1", server.port());
  Socket idle2 = Socket::connect("127.0.0.1", server.port());
  for (int i = 0; i < 200 && server.live_sessions() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.live_sessions(), 2u);

  // The shed is visible on the wire: the server volunteers a kOverloaded
  // error frame before closing the connection.
  {
    Socket third = Socket::connect("127.0.0.1", server.port());
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(third.recv_all_or_eof(header, sizeof(header)));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kError);
    Bytes body(fh.payload_length);
    third.recv_all(body.data(), body.size());
    WireReader r(body);
    EXPECT_EQ(static_cast<StatusCode>(r.u16()), StatusCode::kOverloaded);
    EXPECT_NE(r.string().find("capacity"), std::string::npos);
  }
  EXPECT_GE(server.sessions_shed(), 1u);

  // A retrying client gives up loudly while capacity stays exhausted
  // (whether an attempt reads the shed frame or loses the race to the
  // close, the result is bounded attempts, not a hang).
  RemoteOptions ro;
  ro.retry.max_attempts = 2;
  ro.retry.initial_backoff_ms = 1;
  RemoteConnection third("127.0.0.1", server.port(), ro);
  EXPECT_THROW(third.ping(), RetriesExhaustedError);

  // Capacity freed -> the same client's retry machinery succeeds.
  idle1 = Socket();  // close
  idle2 = Socket();
  for (int i = 0; i < 200 && server.live_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  RemoteConnection again("127.0.0.1", server.port(), aggressive_retry());
  again.ping();
  server.stop();
}

// ---------------------------------------------------------------------------
// Accept-loop resilience: transient accept() failures must not kill it.

TEST(NetChaos, AcceptLoopSurvivesTransientAcceptFailures) {
  ChaosGuard guard;
  TempDir dir("net_accept");
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();

  NetFaultInjector::Config cfg;
  cfg.seed = 42;
  cfg.accept_fail = 3;  // EMFILE-style storm: next 3 accepts throw
  NetFaultInjector::instance().arm(cfg);

  // The accept loop hits the injected failures on its next accept() calls
  // (connections park in the kernel backlog while it backs off). Wait for
  // all three to burn, then prove the loop survived: a fresh connection is
  // still served.
  RemoteConnection remote("127.0.0.1", server.port());
  remote.ping();
  for (int i = 0; i < 2000 && server.accept_retries() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.accept_retries(), 3u);
  RemoteConnection after("127.0.0.1", server.port());
  after.ping();
  EXPECT_GE(server.sessions_accepted(), 2u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Retry-policy failure modes: each exhaustion path is loud and specific.

TEST(NetChaos, RetriesExhaustedNamesAttemptsAndElapsed) {
  // Grab a port that nothing listens on (bind, learn, release).
  uint16_t dead_port;
  {
    TempDir dir("net_dead");
    sql::Database db(dir.str());
    Server server(db, {});
    dead_port = server.port();
  }

  RemoteOptions ro;
  ro.retry.max_attempts = 3;
  ro.retry.initial_backoff_ms = 1;
  ro.retry.max_backoff_ms = 2;
  RemoteConnection remote("127.0.0.1", dead_port, ro);
  try {
    remote.ping();
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_EQ(e.attempts(), 3);
    std::string msg = e.what();
    EXPECT_NE(msg.find("3 attempts"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ms"), std::string::npos) << msg;
    EXPECT_NE(msg.find("last error"), std::string::npos) << msg;
  }
  EXPECT_EQ(remote.stats().exhausted, 1u);
}

TEST(NetChaos, OverallDeadlineBoundsTheRetryLoop) {
  uint16_t dead_port;
  {
    TempDir dir("net_dead2");
    sql::Database db(dir.str());
    Server server(db, {});
    dead_port = server.port();
  }

  RemoteOptions ro;
  ro.retry.max_attempts = 1000000;
  ro.retry.initial_backoff_ms = 1;
  ro.retry.max_backoff_ms = 4;
  ro.retry.overall_deadline_ms = 60;
  auto start = std::chrono::steady_clock::now();
  RemoteConnection remote("127.0.0.1", dead_port, ro);
  try {
    remote.ping();
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_GE(e.elapsed_ms(), 60u);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  // The loop must not have blown far past its deadline (generous slack for
  // slow CI machines).
  EXPECT_LT(wall, 5000);
}

TEST(NetChaos, RetryBudgetExhaustsBeforeAttemptCap) {
  uint16_t dead_port;
  {
    TempDir dir("net_dead3");
    sql::Database db(dir.str());
    Server server(db, {});
    dead_port = server.port();
  }

  RemoteOptions ro;
  ro.retry.max_attempts = 100;
  ro.retry.initial_backoff_ms = 1;
  ro.retry.max_backoff_ms = 2;
  ro.retry.budget_tokens = 2.0;
  RemoteConnection remote("127.0.0.1", dead_port, ro);
  try {
    remote.ping();
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
        << e.what();
    EXPECT_LT(e.attempts(), 100);
  }
}

// ---------------------------------------------------------------------------
// Server-side deadlines: a request whose lock wait exceeds the deadline is
// shed with kOverloaded before executing — and the client rides it out.

TEST(NetChaos, ServerDeadlineShedsLockWaitersAndClientRetries) {
  ChaosGuard guard;
  TempDir dir("net_deadline");
  sql::Database db(dir.str());
  ServerOptions sopts;
  sopts.worker_threads = 4;
  sopts.request_deadline_ms = 1;  // shed after a 1 ms lock wait
  Server server(db, sopts);
  server.start();

  {
    RemoteConnection setup("127.0.0.1", server.port());
    setup.create_table("chaos", chaos_schema());
  }

  // Writer: a stream of fat batches, each holding the db lock exclusively
  // for well over the 1 ms deadline. The tiny deadline sheds the writer's
  // *own* lock waits too when reads contend, so exhaustion is a legitimate
  // outcome — and safe to re-send: every shed happened before execution
  // (the dedup claim is aborted), so no attempt can have landed.
  std::atomic<bool> writer_done{false};
  std::string writer_error;
  std::thread writer([&] {
    try {
      RemoteConnection w("127.0.0.1", server.port(), aggressive_retry());
      Bytes fat(2048, 0xCD);
      for (int b = 0; b < 5; ++b) {
        std::vector<sql::Row> rows;
        for (int i = 0; i < 2000; ++i) {
          rows.push_back({sql::Value::int64(b * 10000 + i),
                          sql::Value::int64(b), sql::Value::blob(fat)});
        }
        for (;;) {
          try {
            w.insert_batch("chaos", rows);
            break;
          } catch (const RetriesExhaustedError&) {
            // Every attempt was shed pre-execution; resending cannot
            // double-apply.
          }
        }
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    writer_done.store(true);
  });

  // Reader: keeps querying under the tiny server deadline; individual
  // requests get shed (kOverloaded) while a batch holds the lock, and the
  // retry loop absorbs the sheds (or gives up loudly and tries again).
  uint64_t reads = 0;
  {
    RemoteConnection r("127.0.0.1", server.port(), aggressive_retry());
    while (!writer_done.load()) {
      try {
        r.row_count("chaos");
        ++reads;
      } catch (const RetriesExhaustedError&) {
      }
    }
  }
  writer.join();
  EXPECT_EQ(writer_error, "");

  EXPECT_GT(reads, 0u);
  EXPECT_GE(server.deadline_rejects(), 1u);
  RemoteConnection verify("127.0.0.1", server.port());
  EXPECT_EQ(verify.row_count("chaos"), 10000u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Dedup-cache bounds: eviction keeps memory bounded without breaking
// exactly-once for retries inside the retain window.

Bytes insert_frame_with_key(uint8_t key_tag, int64_t seq) {
  WireWriter w;
  w.string("chaos");
  w.u32(1);
  w.row({sql::Value::int64(seq), sql::Value::int64(0),
         sql::Value::blob(Bytes{key_tag})});
  RequestExt ext;
  ext.key.fill(key_tag);
  return encode_request_frame(Opcode::kInsertBatch, w.bytes(), ext);
}

Bytes raw_roundtrip(Socket& s, const Bytes& frame, Opcode expected) {
  s.send_all(frame);
  uint8_t header[kFrameHeaderBytes];
  s.recv_all(header, sizeof(header));
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  EXPECT_EQ(fh.opcode, expected);
  Bytes body(fh.payload_length);
  if (fh.payload_length > 0) s.recv_all(body.data(), body.size());
  return body;
}

TEST(NetChaos, DedupEvictionIsBoundedAndKeepsRecentKeysExact) {
  ChaosGuard guard;
  TempDir dir("net_dedup");
  sql::Database db(dir.str());
  ServerOptions sopts;
  sopts.dedup.max_entries = 4;  // tiny cache to force eviction pressure
  Server server(db, sopts);
  server.start();

  {
    RemoteConnection setup("127.0.0.1", server.port());
    setup.create_table("chaos", chaos_schema());
  }

  Socket s = Socket::connect("127.0.0.1", server.port());
  // 20 distinct keys: far over max_entries, but the retain window may hold
  // up to 2x while entries are young — never more.
  for (uint8_t k = 1; k <= 20; ++k) {
    raw_roundtrip(s, insert_frame_with_key(k, k), Opcode::kOkIds);
  }

  // The freshest key is still cached: replaying it is a hit, not a second
  // execution — in-budget retries stay exactly-once under eviction.
  Bytes replay = raw_roundtrip(s, insert_frame_with_key(20, 20),
                               Opcode::kOkIds);
  EXPECT_FALSE(replay.empty());
  EXPECT_GE(server.dedup_hits(), 1u);

  RemoteConnection verify("127.0.0.1", server.port());
  EXPECT_EQ(verify.row_count("chaos"), 20u);  // 21 sends, 20 executions
  server.stop();
}

}  // namespace
}  // namespace wre::net
