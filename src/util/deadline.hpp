#pragma once
// The one stop signal of a routing stage: an absolute steady_clock time plus
// an optional caller-owned cancel flag. Engines take a Deadline through
// their options, the pipeline's RoutingContext holds one, and the serve
// daemon builds one per request; each polls expired() at its checkpoints
// (DGR per train iteration, the baselines between rounds).

#include <atomic>
#include <chrono>

namespace dgr::util {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() = default;

  /// Expires at `at` (Clock::time_point::max() = no time limit), or as soon
  /// as `*cancel` reads true. The flag is owned by the caller, may be raised
  /// from another thread, and must outlive every copy of this Deadline.
  explicit Deadline(Clock::time_point at, const std::atomic<bool>* cancel = nullptr)
      : at_(at), cancel_(cancel) {}

  bool expired() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) return true;
    return at_ != Clock::time_point::max() && Clock::now() >= at_;
  }

 private:
  Clock::time_point at_ = Clock::time_point::max();
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace dgr::util
