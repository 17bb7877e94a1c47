#include "src/net/remote_connection.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "src/util/error.h"

namespace wre::net {

namespace {

/// Backoff jitter needs spread, not secrecy: a fixed seed keeps retry
/// schedules reproducible.
constexpr uint64_t kJitterSeed = 0x5ca1ab1e;

uint64_t elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

sql::ResultSet decode_result(const Bytes& body) {
  WireReader r(body);
  sql::ResultSet rs = decode_result_set(r);
  r.expect_end();
  return rs;
}

}  // namespace

RemoteConnection::RemoteConnection(std::string host, uint16_t port,
                                   RemoteOptions options)
    : options_(options),
      pool_(Endpoint{std::move(host), port}, options.max_frame_bytes,
            options.response_timeout_ms),
      jitter_rng_(kJitterSeed),
      budget_(options.retry.budget_tokens) {}

void RemoteConnection::ping() { roundtrip(Opcode::kPing, {}, Opcode::kOkPong); }

void RemoteConnection::set_tenant_id(uint64_t tenant_id) {
  tenant_id_.store(tenant_id, std::memory_order_relaxed);
}

RemoteStats RemoteConnection::stats() const {
  RemoteStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  return s;
}

Bytes RemoteConnection::roundtrip(Opcode request, ByteView payload,
                                  Opcode expected) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const RetryOptions& rp = options_.retry;
  const auto start = std::chrono::steady_clock::now();

  // One fresh idempotency key that stays constant across this request's
  // retries — the unit the server's dedup cache makes exactly-once. The
  // tenant id scopes that key server-side.
  RequestExt ext;
  ext.tenant_id = tenant_id_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(retry_mu_);
    key_rng_.fill(ext.key);
  }
  std::string last_error = "no error recorded";
  uint32_t backoff_ms = std::max<uint32_t>(1, rp.initial_backoff_ms);
  auto give_up = [&](const std::string& why, int attempts, uint64_t elapsed) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    return RetriesExhaustedError(
        "remote: " + why + " (last error: " + last_error + ")", attempts,
        elapsed);
  };

  for (int attempts = 0;;) {
    uint64_t elapsed = elapsed_ms_since(start);
    if (rp.overall_deadline_ms > 0 && elapsed >= rp.overall_deadline_ms) {
      throw give_up("overall deadline of " +
                        std::to_string(rp.overall_deadline_ms) +
                        " ms expired after " + std::to_string(elapsed) +
                        " ms and " + std::to_string(attempts) + " attempts",
                    attempts, elapsed);
    }
    // What is left of the overall deadline (0 = unbounded) bounds this
    // attempt's response read and is the server's request deadline, so it
    // stops queueing for a client that has already given up.
    const uint64_t remaining =
        rp.overall_deadline_ms > 0 ? rp.overall_deadline_ms - elapsed : 0;
    ext.deadline_ms = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, std::numeric_limits<uint32_t>::max()));
    ++attempts;

    bool refused = false;  // the server answered kError
    StatusCode status = StatusCode::kGeneric;
    std::string message;
    try {
      ChannelPool::Lease lease = pool_.acquire();
      Frame resp = lease->call(request, payload, ext, remaining);
      if (resp.opcode == expected) {
        // Success refunds a fraction of a retry token (capped): steady
        // traffic slowly re-earns the right to retry.
        std::lock_guard<std::mutex> lk(retry_mu_);
        budget_ = std::min(rp.budget_tokens, budget_ + 0.1);
        return std::move(resp.payload);
      }
      if (resp.opcode == Opcode::kError) {
        WireReader r(resp.payload);
        status = static_cast<StatusCode>(r.u16());
        message = r.string();
        r.expect_end();
        refused = true;
        // The server closes the session after every framing fault, which
        // it answers with kNetwork: the channel must not serve the next
        // call. Any other error leaves the stream aligned, and the channel
        // goes back to the pool.
        if (status == StatusCode::kNetwork) lease->poison(message);
      } else {
        last_error = std::string("wire: expected ") + opcode_name(expected) +
                     " response to " + opcode_name(request) + ", got " +
                     opcode_name(resp.opcode);
        lease->poison(last_error);
      }
    } catch (const FrameTooLargeError&) {
      // The response outgrew max_frame_bytes. The channel is poisoned (its
      // stream sits before an unread payload), but the request would draw
      // the same response again: terminal.
      throw;
    } catch (const NetworkError& e) {
      last_error = e.what();
    }
    if (refused) {
      // Only kOverloaded retries. Any other server-side failure (bad SQL,
      // duplicate key, malformed payload) is deterministic: retrying
      // cannot change the outcome.
      if (status != StatusCode::kOverloaded) rethrow_status(status, message);
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      last_error = message;
    }

    // Retry bookkeeping: attempt cap, then budget, then jittered backoff.
    elapsed = elapsed_ms_since(start);
    if (attempts >= rp.max_attempts) {
      throw give_up(std::to_string(attempts) + " attempts failed over " +
                        std::to_string(elapsed) + " ms",
                    attempts, elapsed);
    }
    uint64_t sleep_ms = 0;
    {
      std::lock_guard<std::mutex> lk(retry_mu_);
      if (budget_ < 1.0) {
        throw give_up("retry budget exhausted after " +
                          std::to_string(attempts) + " attempts over " +
                          std::to_string(elapsed) + " ms",
                      attempts, elapsed);
      }
      budget_ -= 1.0;
      // Jitter in [backoff/2, backoff), capped below by the remaining
      // deadline so the last sleep cannot blow through it.
      sleep_ms = backoff_ms / 2 + jitter_rng_.next_below(backoff_ms / 2 + 1);
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (rp.overall_deadline_ms > 0) {
      sleep_ms = std::min<uint64_t>(
          sleep_ms, rp.overall_deadline_ms > elapsed
                        ? rp.overall_deadline_ms - elapsed
                        : 0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min(backoff_ms * 2, rp.max_backoff_ms);
  }
}

sql::ResultSet RemoteConnection::execute(const std::string& sql) {
  WireWriter w;
  w.string(sql);
  return decode_result(
      roundtrip(Opcode::kExecSql, w.bytes(), Opcode::kOkResult));
}

void RemoteConnection::create_table(const std::string& table,
                                    const sql::Schema& schema) {
  WireWriter w;
  w.string(table);
  w.schema(schema);
  roundtrip(Opcode::kCreateTable, w.bytes(), Opcode::kOkUnit);
}

void RemoteConnection::create_index(const std::string& table,
                                    const std::string& column) {
  WireWriter w;
  w.string(table);
  w.string(column);
  roundtrip(Opcode::kCreateIndex, w.bytes(), Opcode::kOkUnit);
}

bool RemoteConnection::has_table(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body =
      roundtrip(Opcode::kHasTable, w.bytes(), Opcode::kOkBool);
  WireReader r(body);
  bool present = r.u8() != 0;
  r.expect_end();
  return present;
}

uint64_t RemoteConnection::row_count(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body =
      roundtrip(Opcode::kRowCount, w.bytes(), Opcode::kOkCount);
  WireReader r(body);
  uint64_t count = r.u64();
  r.expect_end();
  return count;
}

sql::Schema RemoteConnection::table_schema(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body =
      roundtrip(Opcode::kTableSchema, w.bytes(), Opcode::kOkSchema);
  WireReader r(body);
  sql::Schema schema = r.schema();
  r.expect_end();
  return schema;
}

std::vector<int64_t> RemoteConnection::insert_batch(
    const std::string& table, const std::vector<sql::Row>& rows) {
  WireWriter w;
  w.string(table);
  w.u32(static_cast<uint32_t>(rows.size()));
  for (const sql::Row& row : rows) w.row(row);
  Bytes body =
      roundtrip(Opcode::kInsertBatch, w.bytes(), Opcode::kOkIds);
  // The id count is checked against the rows sent before any id is read.
  WireReader r(body);
  uint32_t count = r.u32();
  if (count != rows.size()) {
    throw NetworkError("remote: server returned " + std::to_string(count) +
                       " ids for " + std::to_string(rows.size()) +
                       " inserted rows");
  }
  std::vector<int64_t> ids(rows.size());
  for (int64_t& id : ids) id = r.i64();
  r.expect_end();
  return ids;
}

void RemoteConnection::scan(const std::string& table,
                            const std::function<void(const sql::Row&)>& fn) {
  WireWriter w;
  w.string(table);
  sql::ResultSet rs = decode_result(
      roundtrip(Opcode::kScanTable, w.bytes(), Opcode::kOkResult));
  for (const sql::Row& row : rs.rows) fn(row);
}

sql::ResultSet RemoteConnection::tag_scan(const std::string& table,
                                          const std::string& tag_column,
                                          const std::vector<uint64_t>& tags,
                                          bool star) {
  WireWriter w;
  w.string(table);
  w.string(tag_column);
  w.u8(star ? 1 : 0);
  w.u32(static_cast<uint32_t>(tags.size()));
  for (uint64_t t : tags) w.u64(t);
  return decode_result(
      roundtrip(Opcode::kTagScan, w.bytes(), Opcode::kOkResult));
}

}  // namespace wre::net
