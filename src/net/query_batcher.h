// Opt-in cross-tenant query batching (the paper's deployment twist,
// DESIGN.md §5.7): instead of each kTagScan acquiring the database lock on
// its own, concurrent scans arriving within a small window are coalesced
// and executed by one thread under a single shared-lock acquisition.
//
// Why a server near saturation wants this: with thousands of tenants
// issuing point lookups, the per-request overhead (lock hand-off, cache
// refill walking the index from a cold start) dominates the work. A
// window of w milliseconds trades exactly that — each query waits at most
// w ms longer than it had to — for executing as a group: one lock
// hand-off and warm index state amortized over the batch. The latency
// cost is real and intentional; bench_scale measures it (BENCH_scale.json
// reports p50/p99/p999 with the window off and on).
//
// Privacy note: batching never mixes *results* across tenants. Each query
// keeps its own tag list and its own result slot; tenants' tag namespaces
// are cryptographically disjoint (per-tenant PRF keys), so even a shared
// physical table partitions cleanly. What the server-side batch changes is
// only *when* the scans run, which is the same class of information the
// server already sees per-request.
//
// Leader/follower protocol:
//   - the first query to an empty window becomes the leader; it waits up
//     to window_ms for followers (or until max_batch queries have joined),
//     then takes the whole batch and executes it via the caller-supplied
//     callback;
//   - followers enqueue their item and block until the leader marks it
//     done;
//   - a query arriving while a leader is executing simply opens the next
//     window and leads it — batches pipeline, they never queue behind one
//     another.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "src/sql/ast.h"
#include "src/sql/database.h"

namespace wre::net {

class QueryBatcher {
 public:
  struct Options {
    /// How long a batch leader waits for followers, in milliseconds.
    /// 0 disables batching (run() executes immediately, un-batched).
    uint32_t window_ms = 0;
    /// Batch size that closes the window early.
    size_t max_batch = 64;
  };

  /// One query riding in a batch. The caller's execute callback fills
  /// either `payload` (the encoded kOkResult body) or `error` for every
  /// item it is handed.
  struct Item {
    const sql::SelectStmt* stmt = nullptr;
    Bytes payload;
    std::exception_ptr error;
    bool done = false;
  };

  /// Executes every item in the batch (typically: acquire the database
  /// lock once, then run each item's statement). May throw — the batcher
  /// then propagates that exception to every item in the batch.
  using ExecuteFn = std::function<void(std::vector<Item*>&)>;

  explicit QueryBatcher(const Options& options) : options_(options) {}

  bool enabled() const { return options_.window_ms > 0; }

  /// Submits `stmt` and blocks until it has been executed — by this thread
  /// (leader, or batching disabled) or by another query's leader. Returns
  /// the encoded result or rethrows the execution error.
  Bytes run(const sql::SelectStmt& stmt, const ExecuteFn& execute);

  /// Batch executions so far (each covers >= 1 query).
  uint64_t batches() const;
  /// Queries that shared their batch with at least one other query — the
  /// coalescing actually bought something for these.
  uint64_t coalesced() const;

 private:
  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// The currently-open window. The leader swaps it out wholesale.
  std::vector<Item*> pending_;
  bool leader_active_ = false;
  uint64_t batches_ = 0;
  uint64_t coalesced_ = 0;
};

}  // namespace wre::net
