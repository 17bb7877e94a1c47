// A small fixed-size worker pool: the server's request workers.
// Deliberately minimal: FIFO queue, no futures, no work stealing — callers
// coordinate through their own state.
//
// Shutdown contract: the destructor stops accepting new work, *finishes*
// every task already queued, then joins the workers. Nothing submitted
// before destruction is ever dropped, so a server that stops finishes every
// request it accepted (the concurrency stress test pins this down).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wre::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means one per hardware thread (at least 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains the remaining queue, then joins. See the shutdown contract above.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw — an escaping exception would
  /// terminate the process; wrap fallible work and capture the error.
  /// Throws Error if the pool is shutting down.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stopping
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wre::util
