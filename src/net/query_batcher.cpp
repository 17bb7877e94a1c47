#include "src/net/query_batcher.h"

#include <chrono>

namespace wre::net {

Bytes QueryBatcher::run(const sql::SelectStmt& stmt,
                                 const ExecuteFn& execute) {
  if (!enabled()) {
    // Un-batched fast path: execute alone, same callback contract.
    Item item;
    item.stmt = &stmt;
    std::vector<Item*> solo{&item};
    execute(solo);
    if (item.error) std::rethrow_exception(item.error);
    return std::move(item.payload);
  }

  Item item;
  item.stmt = &stmt;
  std::unique_lock<std::mutex> lock(mu_);
  bool leader = !leader_active_;
  pending_.push_back(&item);
  if (leader) {
    // Lead the window: wait for followers until the window closes or the
    // batch fills. leader_active_ keeps later arrivals from also leading;
    // they either join this window or (if we already swapped it out) open
    // the next one under the next leader.
    leader_active_ = true;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.window_ms);
    cv_.wait_until(lock, deadline, [this] {
      return pending_.size() >= options_.max_batch;
    });
    std::vector<Item*> batch;
    batch.swap(pending_);
    leader_active_ = false;
    // Arrivals from here on see leader_active_ == false and lead the next
    // window — batches pipeline instead of queueing behind this execute.
    lock.unlock();

    try {
      execute(batch);
    } catch (...) {
      // The batch failed before per-item execution (the shared-lock wait
      // was shed): every query in it gets the same retryable error.
      auto err = std::current_exception();
      for (Item* it : batch) {
        if (!it->error) it->error = err;
      }
    }

    lock.lock();
    ++batches_;
    if (batch.size() > 1) coalesced_ += batch.size();
    for (Item* it : batch) it->done = true;
    cv_.notify_all();
  } else {
    // Follower: the window is open and has a leader. Notify in case our
    // arrival filled the batch, then wait for the leader to execute it.
    if (pending_.size() >= options_.max_batch) cv_.notify_all();
    cv_.wait(lock, [&item] { return item.done; });
  }
  if (item.error) std::rethrow_exception(item.error);
  return std::move(item.payload);
}

uint64_t QueryBatcher::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

uint64_t QueryBatcher::coalesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_;
}

}  // namespace wre::net
