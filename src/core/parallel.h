// Minimal work-stealing-free thread pool primitive for embarrassingly
// parallel sweeps: workers claim indices from a shared atomic counter, so
// load balances dynamically even when per-item cost varies (e.g. PER trials
// whose receive chain bails out early at low SNR).
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/prof.h"

namespace itb::core {

/// Runs fn(i) for every i in [0, count) across `num_threads` workers
/// (0 = std::thread::hardware_concurrency()). fn must be callable
/// concurrently for distinct i. The calling thread is worker 0 and
/// `workers - 1` std::threads join it; with one worker (or count <= 1)
/// everything runs on the calling thread. The first exception thrown by any
/// fn is rethrown on the calling thread after every worker has joined.
template <typename Fn>
void parallel_for(std::size_t count, std::size_t num_threads, Fn&& fn) {
  if (count == 0) return;
  static const std::size_t kZone = obs::prof_zone("core.parallel_for");
  obs::ProfZone prof(kZone);
  std::size_t workers = num_threads != 0 ? num_threads
                                         : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  if (workers > count) workers = count;
  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  // Records the first failure and drains the remaining indices so every
  // worker stops promptly.
  const auto fail = [&] {
    const std::lock_guard<std::mutex> lock(error_mu);
    if (!first_error) first_error = std::current_exception();
    next.store(count, std::memory_order_relaxed);
  };
  const auto work = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      fail();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  } catch (...) {
    // A thread that cannot start fails the call like a throwing fn, and
    // the threads already started are still joined below.
    fail();
  }
  work();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace itb::core
