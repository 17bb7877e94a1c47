// Wall-clock timing helper for benches and the experiment harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace wre {

/// Monotonic stopwatch. Starts on construction; `elapsed_*` reads without
/// stopping, `restart` resets the origin.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_millis() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace wre
