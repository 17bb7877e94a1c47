// Client-side transport that speaks the wire protocol to one wre_server —
// or to a horizontal fleet of them via tag-space scatter-gather.
//
// RemoteConnection implements core::DbTransport, so the entire WRE layer
// (EncryptedConnection, IngestPipeline) runs unchanged on the client: salts,
// tags and AES-CTR payloads are produced locally and only the physical rows
// — c_tag integers and c_enc ciphertext — ever cross the wire. The server
// never sees a key, a plaintext, or a query term; its view is exactly the
// honest-but-curious adversary's view from the paper.
//
// Topology: construct with one endpoint for a single server, or with an
// ordered shard map (list position = shard index). One server is the
// one-shard map: every operation runs the same partition/broadcast code,
// which then sends exactly one sub-request. Routing follows src/net/shard.h:
//   - DDL (create_table / create_index) broadcasts to every shard;
//   - insert_batch partitions rows by the hash of their shard-key tag and
//     reassembles the returned ids into input order;
//   - tag_scan partitions its probe list per shard when querying the
//     shard-key column, and broadcasts the full list otherwise — either
//     way the per-shard result sets are disjoint and concatenated in
//     shard order;
//   - execute() (SELECT only when sharded — result rows are concatenated,
//     so aggregates would be wrong), scan() and row_count() broadcast;
//     has_table()/table_schema() ask shard 0 (DDL keeps shards uniform).
// Only a map of two or more shards adds requests: on first use the client
// round-trips kShardInfo to every shard and fails loudly if any server's
// --shard-index/--shard-count disagrees with the map, catching a mis-wired
// fleet before data lands anywhere; and partitioning by the shard key
// fetches each table's schema once (kTableSchema) unless this connection
// created the table.
//
// Transport behaviour:
//   - per-shard channel pools of pipelined connections, as wide as the
//     peak number of concurrent callers: a scatter submits every
//     sub-request before awaiting any response, so shards — and pipelined
//     requests on one connection — overlap instead of serializing;
//   - safe retries for *every* request, mutating ones included: each
//     logical sub-request is stamped with a fresh random idempotency key
//     (the v2 wire extension) that stays constant across its retries, so
//     the server's dedup cache replays — never re-executes — a mutation
//     whose ACK was lost. Transport failures and kOverloaded responses
//     retry under capped exponential backoff with jitter, bounded by
//     RetryOptions: an attempt cap, an overall deadline, and a token
//     budget that stops a flapping link from turning into a retry storm.
//     Each sub-request retries against its own shard only — one slow
//     shard never forces re-work on the others;
//   - when retries stop, the caller gets RetriesExhaustedError naming the
//     attempt count, elapsed time and last underlying error;
//   - kError responses re-throw as the same wre::Error subclass the server
//     caught, so remote and in-process error handling are interchangeable.
//     Server-reported errors other than kOverloaded are deterministic and
//     are NOT retried.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/transport.h"
#include "src/crypto/secure_random.h"
#include "src/net/channel.h"
#include "src/net/shard.h"
#include "src/net/wire.h"
#include "src/util/rng.h"

namespace wre::net {

/// Bounds on the retry loop. The defaults suit a LAN client: give a
/// restarting server a few seconds, then fail loudly.
struct RetryOptions {
  /// Total tries per logical request (first attempt included). 1 disables
  /// retries entirely.
  int max_attempts = 4;
  /// First backoff; doubles per retry up to max_backoff_ms, with jitter.
  uint32_t initial_backoff_ms = 10;
  uint32_t max_backoff_ms = 2000;
  /// Wall-clock cap across all attempts of one request, ms (0 = none).
  /// Also sent to the server as the request deadline, so it stops queueing
  /// for a client that has already given up.
  uint32_t overall_deadline_ms = 30000;
  /// Token-bucket retry budget across requests: a retry costs 1 token, a
  /// success refunds 0.1 (up to the cap). When the bucket is dry, failures
  /// surface immediately instead of amplifying an outage with retries.
  double budget_tokens = 32.0;
};

struct RemoteOptions {
  /// Per-response payload ceiling (mirrors ServerOptions::max_frame_bytes).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bounds how long one response may take (0 = wait forever). Each
  /// attempt's receive timeout is the tighter of this and what remains of
  /// the overall deadline.
  int response_timeout_ms = 60000;
  /// Verify each shard's --shard-index/--shard-count against the endpoint
  /// map (kShardInfo) before the first sharded operation. On by default;
  /// tests pointing several "shards" at one server turn it off.
  bool verify_topology = true;
  RetryOptions retry;
};

/// Client-side fault-tolerance counters (cumulative). `requests` counts
/// wire-level sub-requests: a scatter over 3 shards is 3 requests.
struct RemoteStats {
  uint64_t requests = 0;    // sub-requests issued
  uint64_t retries = 0;     // extra attempts beyond the first
  uint64_t overloaded = 0;  // kOverloaded responses received
  uint64_t exhausted = 0;   // requests that ended in RetriesExhaustedError
  uint64_t fanouts = 0;     // sharded operations that touched >1 shard
};

class RemoteConnection final : public core::DbTransport {
 public:
  /// Single-server transport (shard count 1).
  RemoteConnection(std::string host, uint16_t port, RemoteOptions options = {});
  /// Scatter-gather transport over an ordered shard map. Throws
  /// NetworkError if `shards` is empty.
  RemoteConnection(std::vector<ShardEndpoint> shards,
                   RemoteOptions options = {});

  uint32_t shard_count() const {
    return static_cast<uint32_t>(pools_.size());
  }

  /// Round-trips a kPing to every shard; throws NetworkError if any is
  /// unreachable.
  void ping();

  /// Sets the tenant stamped into every later request's wire extension
  /// (core::TenantPool's on_switch hook re-points one shared connection
  /// between requests). It scopes the server's idempotency cache; 0, the
  /// default, is the single-tenant space. It carries no cryptographic
  /// authority: the tenant's keys stay client-side (crypto::TenantKeyring).
  void set_tenant_id(uint64_t tenant_id);

  RemoteStats stats() const;

  /// Executes a batch of read-only SQL statements pipelined on one
  /// connection per shard: every request frame is written before any
  /// response is read, so a statement's server-side execution overlaps the
  /// next statement's network transfer. Results come back in input order.
  /// Sharded transports broadcast each statement and concatenate rows
  /// (SELECT only, like execute()).
  std::vector<sql::ResultSet> execute_pipelined(
      const std::vector<std::string>& sqls);

  // core::DbTransport
  sql::ResultSet execute(const std::string& sql) override;
  void create_table(const std::string& table,
                    const sql::Schema& schema) override;
  void create_index(const std::string& table,
                    const std::string& column) override;
  bool has_table(const std::string& table) override;
  uint64_t row_count(const std::string& table) override;
  sql::Schema table_schema(const std::string& table) override;
  std::vector<int64_t> insert_batch(const std::string& table,
                                    const std::vector<sql::Row>& rows) override;
  void scan(const std::string& table,
            const std::function<void(const sql::Row&)>& fn) override;
  sql::ResultSet tag_scan(const std::string& table,
                          const std::string& tag_column,
                          const std::vector<uint64_t>& tags,
                          bool star) override;

 private:
  /// One sub-request of a scatter: an opcode + payload bound for `shard`.
  struct Sub {
    uint32_t shard = 0;
    Bytes payload;
  };

  /// Executes a set of sub-requests under the retry policy. Sub-requests
  /// for the same shard are pipelined on one leased channel (submitted in
  /// order before any await); each sub retries independently with its own
  /// idempotency key, attempt count and backoff. Returns payloads in
  /// `subs` order. On any terminal failure, finishes/settles the other
  /// subs first, then rethrows the first terminal error in subs order.
  std::vector<Bytes> scatter(Opcode request, const std::vector<Sub>& subs,
                             Opcode expected);
  /// Single-sub convenience wrapper.
  Bytes roundtrip(uint32_t shard, Opcode request, ByteView payload,
                  Opcode expected);
  /// Broadcasts one payload to all shards and returns per-shard payloads.
  std::vector<Bytes> broadcast(Opcode request, ByteView payload,
                               Opcode expected);

  /// First use (called by scatter): kShardInfo every shard, verify
  /// index/count match the endpoint map. No-op for shard count 1 or
  /// verify_topology=false.
  void ensure_topology();

  /// Shard-key column (index + lower-cased name) of `table`, fetching and
  /// caching the schema from shard 0 on first sight. An unset index means
  /// a tag-less table, which lives wholly on shard 0.
  struct ShardKey {
    std::optional<size_t> index;
    std::string column;
  };
  ShardKey shard_key_for(const std::string& table);

  RemoteOptions options_;
  std::vector<std::unique_ptr<ChannelPool>> pools_;

  std::atomic<uint64_t> tenant_id_{0};

  std::mutex retry_mu_;           // guards the three fields below
  crypto::SecureRandom key_rng_;  // idempotency keys
  Xoshiro256 jitter_rng_;         // backoff jitter
  double budget_;                 // retry tokens remaining

  std::mutex topo_mu_;
  bool topology_verified_ = false;

  std::mutex schema_mu_;
  std::map<std::string, ShardKey> shard_key_cache_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> overloaded_{0};
  std::atomic<uint64_t> exhausted_{0};
  std::atomic<uint64_t> fanouts_{0};
};

}  // namespace wre::net
