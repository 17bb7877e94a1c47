#include "src/net/remote_connection.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <limits>
#include <span>
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

bool looks_like_select(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() && std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  return sql.size() - i >= 6 && sql::to_lower(sql.substr(i, 6)) == "select";
}

/// Decodes each kOkResult body and concatenates the rows in body order.
/// Columns and executor counters come from the first body: the shards run
/// one plan, so they agree on columns.
sql::ResultSet gather(std::span<const Bytes> bodies) {
  sql::ResultSet merged;
  for (size_t k = 0; k < bodies.size(); ++k) {
    WireReader r(bodies[k]);
    sql::ResultSet rs = decode_result_set(r);
    r.expect_end();
    if (k == 0) {
      merged = std::move(rs);
    } else {
      for (sql::Row& row : rs.rows) merged.rows.push_back(std::move(row));
    }
  }
  return merged;
}

/// Indices of `count` items grouped by the shard `shard_of` places each
/// in, keeping only shards that own some, in shard order. An empty input
/// still yields one empty group for shard 0, so one server answers even
/// then: with the result's columns, or with its error for a missing table.
template <class ShardOf>
std::vector<std::pair<uint32_t, std::vector<uint32_t>>> group_by_shard(
    uint32_t n, size_t count, ShardOf shard_of) {
  std::vector<std::vector<uint32_t>> members(n);
  for (uint32_t i = 0; i < count; ++i) members[shard_of(i)].push_back(i);
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> groups;
  for (uint32_t s = 0; s < n; ++s) {
    if (!members[s].empty() || (s == 0 && count == 0)) {
      groups.emplace_back(s, std::move(members[s]));
    }
  }
  return groups;
}

}  // namespace

RemoteConnection::RemoteConnection(std::string host, uint16_t port,
                                   RemoteOptions options)
    : RemoteConnection(
          std::vector<ShardEndpoint>{ShardEndpoint{std::move(host), port}},
          options) {}

RemoteConnection::RemoteConnection(std::vector<ShardEndpoint> shards,
                                   RemoteOptions options)
    : options_(options),
      jitter_rng_(kJitterSeed),
      budget_(options.retry.budget_tokens) {
  if (shards.empty()) throw NetworkError("remote: empty shard map");
  pools_.reserve(shards.size());
  for (ShardEndpoint& ep : shards) {
    pools_.push_back(std::make_unique<ChannelPool>(
        std::move(ep), options_.max_frame_bytes, options_.response_timeout_ms));
  }
}

void RemoteConnection::ping() {
  broadcast(Opcode::kPing, {}, Opcode::kOkPong);
}

void RemoteConnection::set_tenant_id(uint64_t tenant_id) {
  tenant_id_.store(tenant_id, std::memory_order_relaxed);
}

RemoteStats RemoteConnection::stats() const {
  RemoteStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  s.fanouts = fanouts_.load(std::memory_order_relaxed);
  return s;
}

std::vector<Bytes> RemoteConnection::scatter(Opcode request,
                                             const std::vector<Sub>& subs,
                                             Opcode expected) {
  // Every request passes here, so this is where a fleet is checked before
  // its first operation; kShardInfo is that check's own request.
  if (request != Opcode::kShardInfo) ensure_topology();
  requests_.fetch_add(subs.size(), std::memory_order_relaxed);

  const RetryOptions& rp = options_.retry;
  const auto start = std::chrono::steady_clock::now();
  const uint64_t tenant = tenant_id_.load(std::memory_order_relaxed);

  // Per-sub retry state. Each sub carries one fresh idempotency key that
  // stays constant across its retries — the unit the server's dedup cache
  // makes exactly-once. The tenant id scopes that key server-side.
  struct Pend {
    const Sub* sub = nullptr;
    RequestExt ext;
    uint64_t ticket = 0;
    bool inflight = false;
    bool done = false;
    Bytes result;
    std::exception_ptr terminal;
    std::string last_error = "no error recorded";
    int attempts = 0;  // completed attempts
    uint32_t backoff_ms = 0;
  };
  std::vector<Pend> pend(subs.size());
  {
    std::lock_guard<std::mutex> lk(retry_mu_);
    for (size_t i = 0; i < subs.size(); ++i) {
      pend[i].sub = &subs[i];
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
    // Submit phase: group still-active subs by shard and burst each
    // group down one leased channel — every frame is on the wire before
    // any response is awaited, so shards and pipelined requests overlap.
    std::map<uint32_t, std::vector<Pend*>> by_shard;
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
      by_shard[p.sub->shard].push_back(&p);
    }
    if (by_shard.empty()) break;

    std::map<uint32_t, ChannelPool::Lease> leases;
    for (auto& [shard, group] : by_shard) {
      auto [lease_it, inserted] = leases.emplace(shard, pools_[shard]->acquire());
      ChannelPool::Lease& lease = lease_it->second;
      for (size_t gi = 0; gi < group.size(); ++gi) {
        Pend& p = *group[gi];
        ++p.attempts;
        p.ext.deadline_ms = static_cast<uint32_t>(std::min<uint64_t>(
            remaining_of_deadline(elapsed_ms_since(start)),
            std::numeric_limits<uint32_t>::max()));
        try {
          p.ticket = lease->submit(request, p.sub->payload, p.ext);
          p.inflight = true;
        } catch (const NetworkError& e) {
          // The channel died; every later submit on it would fail the
          // same way, so charge the whole rest of the group one attempt
          // and move on to the next shard.
          for (size_t gj = gi; gj < group.size(); ++gj) {
            Pend& q = *group[gj];
            if (gj > gi) ++q.attempts;
            q.last_error = e.what();
            q.inflight = false;
          }
          break;
        }
      }
      // Uncork the burst now — not lazily at the first await — so every
      // shard's server is working before we block on any response.
      try {
        if (!lease->dead()) lease->flush();
      } catch (const NetworkError& e) {
        for (Pend* pp : group) {
          if (pp->inflight) {
            pp->last_error = e.what();
            pp->inflight = false;
          }
        }
      }
    }

    // Await phase: responses come back in ticket order per channel. A
    // transport failure poisons that channel, so the rest of its group
    // fails fast instead of timing out one by one.
    for (auto& [shard, group] : by_shard) {
      ChannelPool::Lease& lease = leases.at(shard);
      for (Pend* pp : group) {
        Pend& p = *pp;
        if (!p.inflight) continue;
        p.inflight = false;
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
        } catch (const NetworkError& e) {
          p.last_error = e.what();
        }
      }
    }
    leases.clear();  // healthy channels return to their pools; dead ones drop

    // Retry bookkeeping: attempt cap, then budget, then jittered backoff.
    // One sleep per round (the max of the failing subs' backoffs) — each
    // sub still owns its own doubling schedule.
    uint64_t round_sleep = 0;
    for (Pend& p : pend) {
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

Bytes RemoteConnection::roundtrip(uint32_t shard, Opcode request,
                                  ByteView payload, Opcode expected) {
  std::vector<Sub> subs(1);
  subs[0].shard = shard;
  subs[0].payload.assign(payload.begin(), payload.end());
  return std::move(scatter(request, subs, expected)[0]);
}

std::vector<Bytes> RemoteConnection::broadcast(Opcode request,
                                               ByteView payload,
                                               Opcode expected) {
  std::vector<Sub> subs(pools_.size());
  for (uint32_t s = 0; s < pools_.size(); ++s) {
    subs[s].shard = s;
    subs[s].payload.assign(payload.begin(), payload.end());
  }
  if (subs.size() > 1) fanouts_.fetch_add(1, std::memory_order_relaxed);
  return scatter(request, subs, expected);
}

void RemoteConnection::ensure_topology() {
  if (pools_.size() <= 1 || !options_.verify_topology) return;
  std::lock_guard<std::mutex> lk(topo_mu_);
  if (topology_verified_) return;
  std::vector<Bytes> infos =
      broadcast(Opcode::kShardInfo, {}, Opcode::kOkShardInfo);
  for (uint32_t s = 0; s < infos.size(); ++s) {
    WireReader r(infos[s]);
    uint32_t index = r.u32();
    uint32_t count = r.u32();
    r.expect_end();
    if (index != s || count != pools_.size()) {
      const ShardEndpoint& ep = pools_[s]->endpoint();
      throw NetworkError(
          "shard map: " + ep.host + ":" + std::to_string(ep.port) +
          " reports shard " + std::to_string(index) + " of " +
          std::to_string(count) + " but the endpoint map places it at " +
          std::to_string(s) + " of " + std::to_string(pools_.size()) +
          " (check --shard-index/--shard-count)");
    }
  }
  topology_verified_ = true;
}

RemoteConnection::ShardKey RemoteConnection::shard_key_for(
    const std::string& table) {
  std::string key = sql::to_lower(table);
  {
    std::lock_guard<std::mutex> lk(schema_mu_);
    auto it = shard_key_cache_.find(key);
    if (it != shard_key_cache_.end()) return it->second;
  }
  // DDL broadcasts keep shards uniform, so shard 0's schema is canonical.
  WireWriter w;
  w.string(table);
  Bytes body = roundtrip(0, Opcode::kTableSchema, w.bytes(), Opcode::kOkSchema);
  WireReader r(body);
  sql::Schema schema = r.schema();
  r.expect_end();
  ShardKey sk;
  sk.index = shard_key_index(schema);
  if (sk.index) sk.column = schema.column(*sk.index).name;
  std::lock_guard<std::mutex> lk(schema_mu_);
  shard_key_cache_[key] = sk;
  return sk;
}

std::vector<sql::ResultSet> RemoteConnection::execute_pipelined(
    const std::vector<std::string>& sqls) {
  const uint32_t n = shard_count();
  std::vector<Sub> subs;
  subs.reserve(sqls.size() * n);
  for (const std::string& sql : sqls) {
    if (n > 1 && !looks_like_select(sql)) {
      throw NetworkError(
          "remote: sharded transport supports only SELECT through "
          "execute_pipelined(); mutations must go through insert_batch");
    }
    WireWriter w;
    w.string(sql);
    for (uint32_t s = 0; s < n; ++s) subs.push_back(Sub{s, w.bytes()});
  }
  if (n > 1 && !sqls.empty()) {
    fanouts_.fetch_add(sqls.size(), std::memory_order_relaxed);
  }
  std::vector<Bytes> bodies = scatter(Opcode::kExecSql, subs, Opcode::kOkResult);
  std::vector<sql::ResultSet> out;
  out.reserve(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    out.push_back(gather(std::span(bodies).subspan(i * n, n)));
  }
  return out;
}

sql::ResultSet RemoteConnection::execute(const std::string& sql) {
  if (shard_count() > 1 && !looks_like_select(sql)) {
    // Row concatenation is only correct for plain row-returning SELECTs,
    // and a broadcast INSERT/UPDATE would run once per shard.
    throw NetworkError(
        "remote: sharded transport supports only SELECT through execute(); "
        "mutations must go through insert_batch/create_table");
  }
  WireWriter w;
  w.string(sql);
  return gather(broadcast(Opcode::kExecSql, w.bytes(), Opcode::kOkResult));
}

void RemoteConnection::create_table(const std::string& table,
                                    const sql::Schema& schema) {
  WireWriter w;
  w.string(table);
  w.schema(schema);
  broadcast(Opcode::kCreateTable, w.bytes(), Opcode::kOkUnit);
  ShardKey sk;
  sk.index = shard_key_index(schema);
  if (sk.index) sk.column = schema.column(*sk.index).name;
  std::lock_guard<std::mutex> lk(schema_mu_);
  shard_key_cache_[sql::to_lower(table)] = sk;
}

void RemoteConnection::create_index(const std::string& table,
                                    const std::string& column) {
  WireWriter w;
  w.string(table);
  w.string(column);
  broadcast(Opcode::kCreateIndex, w.bytes(), Opcode::kOkUnit);
}

bool RemoteConnection::has_table(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body = roundtrip(0, Opcode::kHasTable, w.bytes(), Opcode::kOkBool);
  WireReader r(body);
  bool present = r.u8() != 0;
  r.expect_end();
  return present;
}

uint64_t RemoteConnection::row_count(const std::string& table) {
  WireWriter w;
  w.string(table);
  std::vector<Bytes> bodies =
      broadcast(Opcode::kRowCount, w.bytes(), Opcode::kOkCount);
  uint64_t total = 0;
  for (const Bytes& body : bodies) {
    WireReader r(body);
    total += r.u64();
    r.expect_end();
  }
  return total;
}

sql::Schema RemoteConnection::table_schema(const std::string& table) {
  WireWriter w;
  w.string(table);
  Bytes body = roundtrip(0, Opcode::kTableSchema, w.bytes(), Opcode::kOkSchema);
  WireReader r(body);
  sql::Schema schema = r.schema();
  r.expect_end();
  return schema;
}

std::vector<int64_t> RemoteConnection::insert_batch(
    const std::string& table, const std::vector<sql::Row>& rows) {
  const uint32_t n = shard_count();
  // Partition rows by the hash of their shard-key tag; rows the key
  // cannot place (one server, tag-less table, short row, non-integer
  // value — the owning shard will report the schema error) go to shard 0.
  const ShardKey sk = n > 1 ? shard_key_for(table) : ShardKey{};
  auto groups = group_by_shard(n, rows.size(), [&](uint32_t i) -> uint32_t {
    const sql::Row& row = rows[i];
    if (!sk.index || *sk.index >= row.size() ||
        row[*sk.index].type() != sql::ValueType::kInt64) {
      return 0;
    }
    return shard_for_tag(row[*sk.index].as_tag(), n);
  });
  std::vector<Sub> subs;
  for (const auto& [s, members] : groups) {
    WireWriter w;
    w.string(table);
    w.u32(static_cast<uint32_t>(members.size()));
    for (uint32_t i : members) w.row(rows[i]);
    subs.push_back(Sub{s, std::move(w.bytes())});
  }
  if (subs.size() > 1) fanouts_.fetch_add(1, std::memory_order_relaxed);

  std::vector<Bytes> bodies = scatter(Opcode::kInsertBatch, subs, Opcode::kOkIds);
  // Reassemble the per-shard id lists into input order. Each count is
  // checked against the rows sent before any id is read.
  std::vector<int64_t> ids(rows.size());
  for (size_t k = 0; k < bodies.size(); ++k) {
    const std::vector<uint32_t>& members = groups[k].second;
    WireReader r(bodies[k]);
    uint32_t count = r.u32();
    if (count != members.size()) {
      throw NetworkError("remote: shard " + std::to_string(subs[k].shard) +
                         " returned " + std::to_string(count) + " ids for " +
                         std::to_string(members.size()) + " inserted rows");
    }
    for (uint32_t i : members) ids[i] = r.i64();
    r.expect_end();
  }
  return ids;
}

void RemoteConnection::scan(const std::string& table,
                            const std::function<void(const sql::Row&)>& fn) {
  WireWriter w;
  w.string(table);
  sql::ResultSet rs =
      gather(broadcast(Opcode::kScanTable, w.bytes(), Opcode::kOkResult));
  for (const sql::Row& row : rs.rows) fn(row);
}

sql::ResultSet RemoteConnection::tag_scan(const std::string& table,
                                          const std::string& tag_column,
                                          const std::vector<uint64_t>& tags,
                                          bool star) {
  const uint32_t n = shard_count();
  auto encode = [&](const std::vector<uint64_t>& probe) {
    WireWriter w;
    w.string(table);
    w.string(tag_column);
    w.u8(star ? 1 : 0);
    w.u32(static_cast<uint32_t>(probe.size()));
    for (uint64_t t : probe) w.u64(t);
    return std::move(w.bytes());
  };
  const ShardKey sk = n > 1 ? shard_key_for(table) : ShardKey{};
  if (!sk.index || sql::to_lower(tag_column) != sk.column) {
    // One server, a tag-less table, or a non-key tag column: rows are
    // placed by another column's tag, so every shard may own matches —
    // broadcast the full list. Results are still disjoint (each row lives
    // on one shard).
    return gather(broadcast(Opcode::kTagScan, encode(tags), Opcode::kOkResult));
  }
  // Probing the shard-key column: each probe tag names exactly one shard,
  // so partition the list and only visit shards that own a tag.
  std::vector<Sub> subs;
  for (const auto& [s, members] : group_by_shard(
           n, tags.size(), [&](uint32_t i) { return shard_for_tag(tags[i], n); })) {
    std::vector<uint64_t> probe;
    probe.reserve(members.size());
    for (uint32_t i : members) probe.push_back(tags[i]);
    subs.push_back(Sub{s, encode(probe)});
  }
  if (subs.size() > 1) fanouts_.fetch_add(1, std::memory_order_relaxed);
  return gather(scatter(Opcode::kTagScan, subs, Opcode::kOkResult));
}

}  // namespace wre::net
