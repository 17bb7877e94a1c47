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

std::vector<Bytes> RemoteConnection::send(Opcode request,
                                          std::vector<Bytes> payloads,
                                          Opcode expected) {
  requests_.fetch_add(payloads.size(), std::memory_order_relaxed);

  const RetryOptions& rp = options_.retry;
  const auto start = std::chrono::steady_clock::now();
  const uint64_t tenant = tenant_id_.load(std::memory_order_relaxed);

  // Per-request retry state. Each request carries one fresh idempotency
  // key that stays constant across its retries — the unit the server's
  // dedup cache makes exactly-once. The tenant id scopes that key
  // server-side.
  struct Pend {
    Bytes payload;
    RequestExt ext;
    uint64_t ticket = 0;
    bool done = false;
    Bytes result;
    std::exception_ptr terminal;
    std::string last_error = "no error recorded";
    int attempts = 0;  // completed attempts
    uint32_t backoff_ms = 0;
  };
  std::vector<Pend> pend(payloads.size());
  {
    std::lock_guard<std::mutex> lk(retry_mu_);
    for (size_t i = 0; i < pend.size(); ++i) {
      pend[i].payload = std::move(payloads[i]);
      pend[i].ext.has_key = true;
      key_rng_.fill(pend[i].ext.key);
      pend[i].ext.tenant_id = tenant;
      pend[i].backoff_ms = std::max<uint32_t>(1, rp.initial_backoff_ms);
    }
  }

  auto settle_exhausted = [this](Pend& p, std::string msg, int attempts,
                                 uint64_t elapsed) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    try {
      throw RetriesExhaustedError(std::move(msg), attempts, elapsed);
    } catch (...) {
      p.terminal = std::current_exception();
    }
  };
  auto remaining_of_deadline = [&rp](uint64_t elapsed) -> uint64_t {
    if (rp.overall_deadline_ms == 0) return 0;  // 0 = unbounded
    return rp.overall_deadline_ms > elapsed ? rp.overall_deadline_ms - elapsed
                                            : 1;
  };

  for (;;) {
    std::vector<Pend*> active;
    for (Pend& p : pend) {
      if (p.done || p.terminal) continue;
      uint64_t elapsed = elapsed_ms_since(start);
      if (rp.overall_deadline_ms > 0 && elapsed >= rp.overall_deadline_ms) {
        settle_exhausted(
            p,
            "remote: overall deadline of " +
                std::to_string(rp.overall_deadline_ms) + " ms expired after " +
                std::to_string(elapsed) + " ms and " +
                std::to_string(p.attempts) + " attempts (last error: " +
                p.last_error + ")",
            p.attempts, elapsed);
        continue;
      }
      active.push_back(&p);
    }
    if (active.empty()) break;

    {
      // Submit phase: burst every still-active request down one leased
      // channel. The first await flushes the burst, so every frame is on
      // the wire before any response is read.
      ChannelPool::Lease lease = pool_.acquire();
      size_t submitted = 0;
      for (; submitted < active.size(); ++submitted) {
        Pend& p = *active[submitted];
        ++p.attempts;
        p.ext.deadline_ms = static_cast<uint32_t>(std::min<uint64_t>(
            remaining_of_deadline(elapsed_ms_since(start)),
            std::numeric_limits<uint32_t>::max()));
        try {
          p.ticket = lease->submit(request, p.payload, p.ext);
        } catch (const NetworkError& e) {
          // The channel died; every later submit on it would fail the
          // same way, so charge the rest of the burst one attempt each.
          for (size_t j = submitted; j < active.size(); ++j) {
            if (j > submitted) ++active[j]->attempts;
            active[j]->last_error = e.what();
          }
          break;
        }
      }

      // Await phase: responses come back in ticket order. A transport
      // failure poisons the channel, so the rest of the burst fails fast
      // instead of timing out one by one.
      for (size_t i = 0; i < submitted; ++i) {
        Pend& p = *active[i];
        try {
          PipelinedChannel::Response resp = lease->await(
              p.ticket, remaining_of_deadline(elapsed_ms_since(start)));
          if (resp.opcode == Opcode::kError) {
            // A server-side error leaves the stream aligned; keep the
            // channel and hand the status to the retry logic (only
            // kOverloaded retries).
            WireReader r(resp.payload);
            auto status = static_cast<StatusCode>(r.u16());
            std::string message = r.string();
            r.expect_end();
            if (status != StatusCode::kOverloaded) {
              // Deterministic server-side failure (bad SQL, duplicate
              // key, malformed payload): retrying cannot change the
              // outcome.
              try {
                rethrow_status(status, message);
              } catch (...) {
                p.terminal = std::current_exception();
              }
            } else {
              overloaded_.fetch_add(1, std::memory_order_relaxed);
              p.last_error = message;
            }
          } else if (resp.opcode != expected) {
            p.last_error = std::string("wire: expected ") +
                           opcode_name(expected) + " response to " +
                           opcode_name(request) + ", got " +
                           opcode_name(resp.opcode);
            lease->poison(p.last_error);
          } else {
            p.done = true;
            p.result = std::move(resp.payload);
            // Success refunds a fraction of a retry token (capped):
            // steady traffic slowly re-earns the right to retry.
            std::lock_guard<std::mutex> lk(retry_mu_);
            budget_ = std::min(rp.budget_tokens, budget_ + 0.1);
          }
        } catch (const FrameTooLargeError&) {
          // The response outgrew max_frame_bytes. The channel is poisoned
          // (its stream sits before an unread payload), but the request
          // would draw the same response again: terminal.
          p.terminal = std::current_exception();
        } catch (const NetworkError& e) {
          p.last_error = e.what();
        }
      }
    }  // a healthy channel returns to the pool; a dead one drops

    // Retry bookkeeping: attempt cap, then budget, then jittered backoff.
    // One sleep per round (the max of the failing requests' backoffs) —
    // each request still owns its own doubling schedule.
    uint64_t round_sleep = 0;
    for (Pend* pp : active) {
      Pend& p = *pp;
      if (p.done || p.terminal) continue;
      uint64_t now_elapsed = elapsed_ms_since(start);
      if (p.attempts >= rp.max_attempts) {
        settle_exhausted(p,
                         "remote: " + std::to_string(p.attempts) +
                             " attempts failed over " +
                             std::to_string(now_elapsed) +
                             " ms (last error: " + p.last_error + ")",
                         p.attempts, now_elapsed);
        continue;
      }
      bool budget_ok = false;
      uint64_t sleep_ms = 0;
      {
        std::lock_guard<std::mutex> lk(retry_mu_);
        if (budget_ >= 1.0) {
          budget_ok = true;
          budget_ -= 1.0;
          // Jitter in [backoff/2, backoff), capped below by the
          // remaining deadline so the last sleep cannot blow through it.
          sleep_ms = p.backoff_ms / 2 +
                     jitter_rng_.next_below(p.backoff_ms / 2 + 1);
        }
      }
      if (!budget_ok) {
        settle_exhausted(p,
                         "remote: retry budget exhausted after " +
                             std::to_string(p.attempts) + " attempts over " +
                             std::to_string(now_elapsed) +
                             " ms (last error: " + p.last_error + ")",
                         p.attempts, now_elapsed);
        continue;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      if (rp.overall_deadline_ms > 0) {
        uint64_t left = rp.overall_deadline_ms > now_elapsed
                            ? rp.overall_deadline_ms - now_elapsed
                            : 0;
        sleep_ms = std::min(sleep_ms, left);
      }
      round_sleep = std::max(round_sleep, sleep_ms);
      p.backoff_ms = std::min(p.backoff_ms * 2, rp.max_backoff_ms);
    }
    if (round_sleep > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(round_sleep));
    }
  }

  for (Pend& p : pend) {
    if (p.terminal) std::rethrow_exception(p.terminal);
  }
  std::vector<Bytes> out;
  out.reserve(pend.size());
  for (Pend& p : pend) out.push_back(std::move(p.result));
  return out;
}

Bytes RemoteConnection::roundtrip(Opcode request, Bytes payload,
                                  Opcode expected) {
  std::vector<Bytes> payloads;
  payloads.push_back(std::move(payload));
  return std::move(send(request, std::move(payloads), expected)[0]);
}

std::vector<sql::ResultSet> RemoteConnection::execute_pipelined(
    const std::vector<std::string>& sqls) {
  std::vector<Bytes> payloads;
  payloads.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    WireWriter w;
    w.string(sql);
    payloads.push_back(std::move(w.bytes()));
  }
  std::vector<Bytes> bodies =
      send(Opcode::kExecSql, std::move(payloads), Opcode::kOkResult);
  std::vector<sql::ResultSet> out;
  out.reserve(bodies.size());
  for (const Bytes& body : bodies) out.push_back(decode_result(body));
  return out;
}

sql::ResultSet RemoteConnection::execute(const std::string& sql) {
  WireWriter w;
  w.string(sql);
  return decode_result(
      roundtrip(Opcode::kExecSql, std::move(w.bytes()), Opcode::kOkResult));
}

void RemoteConnection::create_table(const std::string& table,
                                    const sql::Schema& schema) {
  WireWriter w;
  w.string(table);
  w.schema(schema);
  roundtrip(Opcode::kCreateTable, std::move(w.bytes()), Opcode::kOkUnit);
}

void RemoteConnection::create_index(const std::string& table,
                                    const std::string& column) {
  WireWriter w;
  w.string(table);
  w.string(column);
  roundtrip(Opcode::kCreateIndex, std::move(w.bytes()), Opcode::kOkUnit);
}

bool RemoteConnection::has_table(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body =
      roundtrip(Opcode::kHasTable, std::move(w.bytes()), Opcode::kOkBool);
  WireReader r(body);
  bool present = r.u8() != 0;
  r.expect_end();
  return present;
}

uint64_t RemoteConnection::row_count(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body =
      roundtrip(Opcode::kRowCount, std::move(w.bytes()), Opcode::kOkCount);
  WireReader r(body);
  uint64_t count = r.u64();
  r.expect_end();
  return count;
}

sql::Schema RemoteConnection::table_schema(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body =
      roundtrip(Opcode::kTableSchema, std::move(w.bytes()), Opcode::kOkSchema);
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
      roundtrip(Opcode::kInsertBatch, std::move(w.bytes()), Opcode::kOkIds);
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
      roundtrip(Opcode::kScanTable, std::move(w.bytes()), Opcode::kOkResult));
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
      roundtrip(Opcode::kTagScan, std::move(w.bytes()), Opcode::kOkResult));
}

}  // namespace wre::net
