// Test helper: holds a BatchingServer's dispatcher inside one batch, so the
// requests submitted meanwhile stay queued until that batch returns.  The
// dispatcher forms a batch as soon as anything is queued, so a test can
// fill the queue only behind a batch in flight:
//
//   ParkedDispatcher park(std::chrono::milliseconds(200));
//   auto first = server.submit(...);  // becomes the parked batch
//   ASSERT_TRUE(park.wait());         // the dispatcher sleeps inside it
//   ... submit the requests that must queue ...
//
// The hold is one `engine-delay` fault trigger, which fires in the batch
// call before the engine runs; the destructor disarms the point if it never
// fired.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "util/fault_injection.h"

namespace slide {

class ParkedDispatcher {
 public:
  explicit ParkedDispatcher(std::chrono::microseconds hold)
      : fired_before_(faults().triggered(util::FaultPoint::EngineDelay)) {
    faults().set(util::FaultPoint::EngineDelay, 1.0,
                 static_cast<std::uint64_t>(hold.count()), /*max_triggers=*/1);
  }
  ~ParkedDispatcher() { faults().set(util::FaultPoint::EngineDelay, 0.0); }

  ParkedDispatcher(const ParkedDispatcher&) = delete;
  ParkedDispatcher& operator=(const ParkedDispatcher&) = delete;

  // True once the dispatcher has taken the trigger, i.e. it has dequeued
  // the first request and sleeps in that batch; false after 10 s without.
  // The trigger count is process-wide and keeps its total across tests, so
  // the wait is for one more fire than at construction.
  bool wait() const {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (faults().triggered(util::FaultPoint::EngineDelay) == fired_before_) {
      if (std::chrono::steady_clock::now() > give_up) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

 private:
  static util::FaultInjector& faults() { return util::FaultInjector::instance(); }

  const std::uint64_t fired_before_;
};

}  // namespace slide
