// Client-side transport that speaks the wire protocol to one wre_server.
//
// RemoteConnection implements core::DbTransport, so the entire WRE layer
// (EncryptedConnection, IngestPipeline) runs unchanged on the client: salts,
// tags and AES-CTR payloads are produced locally and only the physical rows
// — c_tag integers and c_enc ciphertext — ever cross the wire. The server
// never sees a key, a plaintext, or a query term; its view is exactly the
// honest-but-curious adversary's view from the paper. Every call is one
// request frame and one round trip, as each rewritten WRE query is.
//
// Transport behaviour:
//   - a channel pool, as wide as the peak number of concurrent callers: a
//     call leases one channel for its request and response, so concurrent
//     callers never share a socket and no channel ever has two requests in
//     flight;
//   - safe retries for *every* request, mutating ones included: each
//     logical request is stamped with a fresh random idempotency key
//     (the request extension, wire.h) that stays constant across its
//     retries, so the server's dedup cache replays — never re-executes —
//     a mutation whose ACK was lost. Transport failures and kOverloaded
//     responses retry under capped exponential backoff with jitter,
//     bounded by RetryOptions: an attempt cap, an overall deadline, and a
//     token budget that stops a flapping link from turning into a retry
//     storm;
//   - when retries stop, the caller gets RetriesExhaustedError naming the
//     attempt count, elapsed time and last underlying error;
//   - a response over max_frame_bytes fails its request without a retry,
//     with FrameTooLargeError, at the client's limit or the server's;
//   - a kNetwork error (the server found the request malformed, and after
//     a framing fault it closes the session) drops the channel;
//   - kError responses re-throw as the same wre::Error subclass the server
//     caught, so remote and in-process error handling are interchangeable.
//     Server-reported errors other than kOverloaded are deterministic and
//     are NOT retried.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/transport.h"
#include "src/crypto/secure_random.h"
#include "src/net/channel.h"
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
  /// A larger response fails its request with FrameTooLargeError.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bounds how long one response may take (0 = wait forever). Each
  /// attempt's receive timeout is the tighter of this and what remains of
  /// the overall deadline.
  int response_timeout_ms = 60000;
  RetryOptions retry;
};

/// Client-side fault-tolerance counters (cumulative). `requests` counts
/// logical requests, one per call: a request retried twice is 1 request
/// and 2 retries.
struct RemoteStats {
  uint64_t requests = 0;    // logical requests issued
  uint64_t retries = 0;     // extra attempts beyond the first
  uint64_t overloaded = 0;  // kOverloaded responses received
  uint64_t exhausted = 0;   // requests that ended in RetriesExhaustedError
};

class RemoteConnection final : public core::DbTransport {
 public:
  RemoteConnection(std::string host, uint16_t port, RemoteOptions options = {});

  /// Round-trips a kPing; throws NetworkError if the server is unreachable.
  void ping();

  /// Sets the tenant stamped into every later request's wire extension
  /// (core::TenantPool's on_switch hook re-points one shared connection
  /// between requests). It scopes the server's idempotency cache; 0, the
  /// default, is the single-tenant space. It carries no cryptographic
  /// authority: the tenant's keys stay client-side (crypto::TenantKeyring).
  void set_tenant_id(uint64_t tenant_id);

  RemoteStats stats() const;

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
  /// The request loop: sends one `request` frame on a leased channel and
  /// returns the `expected` response's body. Every attempt carries the
  /// same idempotency key; transport failures and kOverloaded retry under
  /// the RetryOptions bounds, any other server error rethrows as its
  /// wre::Error subclass, and a response over max_frame_bytes throws
  /// FrameTooLargeError without a retry.
  Bytes roundtrip(Opcode request, ByteView payload, Opcode expected);

  RemoteOptions options_;
  ChannelPool pool_;

  std::atomic<uint64_t> tenant_id_{0};

  std::mutex retry_mu_;           // guards the three fields below
  crypto::SecureRandom key_rng_;  // idempotency keys
  Xoshiro256 jitter_rng_;         // backoff jitter
  double budget_;                 // retry tokens remaining

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> overloaded_{0};
  std::atomic<uint64_t> exhausted_{0};
};

}  // namespace wre::net
