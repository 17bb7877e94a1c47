// Server-side idempotency: a bounded cache from request key to recorded
// response, making "retry a mutation" safe.
//
// The client cannot distinguish "the connection died before the server saw
// my INSERT" from "the server applied it and the ACK was lost". Blind
// re-send risks double-applying; never re-sending turns every blip into a
// failed request. The request extension (wire.h) stamps each logical
// request with a random 16-byte key that stays constant across retries, and
// this cache gives that key exactly-once semantics server-side:
//
//   * first arrival     — begin() returns true; the session executes the
//     request, then complete() records the response (success *or* error:
//     replaying a deterministic failure is just as important as replaying a
//     success, otherwise a retried bad INSERT would execute twice).
//   * concurrent retry  — begin() finds the key InFlight and blocks until
//     the first execution completes, then returns its recorded response.
//     Two racing retries of one request never execute twice.
//   * later retry       — begin() finds the key Done and returns the
//     recorded response without executing anything.
//
// The cache is bounded (entries and bytes) with LRU eviction of completed
// entries — but entries younger than retain_ms are protected, so any retry
// the client's own deadline still permits will find its key (the client
// gives up long before retain_ms). In-flight entries are never evicted.
// Eviction of an old key degrades gracefully: the retry re-executes, which
// for WRE's insert path surfaces as duplicate rows only if the client
// retries after abandoning its deadline — outside the contract.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "src/net/wire.h"

namespace wre::net {

/// The 16-byte client-generated idempotency key (RequestExt::key).
using IdempotencyKey = std::array<uint8_t, 16>;

/// Cache key: the idempotency key scoped by the tenant that sent it. Keys
/// are CSPRNG output, so collisions across tenants are already negligible —
/// the scoping is about *authority*, not entropy: tenant B must not be able
/// to replay (or pre-poison) a response recorded for tenant A by guessing
/// or observing A's key.
struct DedupKey {
  uint64_t tenant_id = 0;
  IdempotencyKey key{};

  friend bool operator==(const DedupKey& a, const DedupKey& b) {
    return a.tenant_id == b.tenant_id && a.key == b.key;
  }
};

class DedupCache {
 public:
  struct Options {
    /// Max completed entries retained (hard cap counts in-flight too).
    size_t max_entries = 4096;
    /// Max bytes of cached response payloads.
    size_t max_bytes = 32u << 20;
    /// Entries younger than this survive LRU pressure — the replay window
    /// every in-deadline retry is guaranteed to hit.
    uint32_t retain_ms = 15000;
  };

  DedupCache() = default;
  explicit DedupCache(const Options& options) : options_(options) {}

  /// Claims `key`. Returns true if the caller owns the execution and MUST
  /// later call exactly one of complete(key, ...) — also on failure: record
  /// the error frame — or abort(key). Returns false with *out set to the
  /// recorded response when the key was already executed (or finishes while
  /// we wait).
  bool begin(const DedupKey& key, Frame* out);

  /// Records the response for a key claimed via begin() and wakes waiters.
  void complete(const DedupKey& key, const Frame& response);

  /// Releases a claim *without* recording a response — for requests shed
  /// before execution (deadline/overload): the outcome is "never ran", so a
  /// retry must be allowed to execute rather than replay the shed error.
  /// Waiters re-race to claim the key.
  void abort(const DedupKey& key);

  /// Replayed-response count (a retry that did not re-execute).
  uint64_t hits() const;
  /// Entries evicted under bound pressure.
  uint64_t evictions() const;
  size_t entries() const;

 private:
  struct Hash {
    size_t operator()(const DedupKey& k) const;
  };
  struct Entry {
    bool done = false;
    Frame response;
    /// Last-touch time, steady ms; guards the retain window.
    uint64_t touched_ms = 0;
    std::list<DedupKey>::iterator lru_it;
  };

  void evict_locked(uint64_t now_ms);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<DedupKey, Entry, Hash> map_;
  /// LRU order over *completed* entries only, oldest first.
  std::list<DedupKey> lru_;
  size_t cached_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace wre::net
