// Test helper: sets the global pool's width for one scope and restores the
// width that was active before, however the scope ends (a failed ASSERT_*
// returns early).  A 1-thread pool makes a training run reproducible: on
// more threads HOGWILD scheduling moves the result from run to run.
#pragma once

#include "threading/thread_pool.h"

namespace slide {

class ScopedPoolThreads {
 public:
  explicit ScopedPoolThreads(unsigned threads) : previous_(global_pool().size()) {
    set_global_pool_threads(threads);
  }
  ~ScopedPoolThreads() { set_global_pool_threads(previous_); }

  ScopedPoolThreads(const ScopedPoolThreads&) = delete;
  ScopedPoolThreads& operator=(const ScopedPoolThreads&) = delete;

 private:
  unsigned previous_;
};

}  // namespace slide
