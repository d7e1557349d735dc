// Deterministic sweep machinery shared by benches, examples and tests:
// a work-stealing parallel_for over hardware threads plus the per-point
// seed mixer that keeps Monte-Carlo results independent of how the sweep
// is parallelized. Promoted from bench/common.h so every consumer of the
// library can run paper-scale sweeps the same way.
//
// parallel_for is templated on the callable (no std::function wrapper, so
// the hot sweep path pays no type-erasure allocation) and doubles as the
// worker-utilization probe of the span recorder's tree view: whenever the
// recorder is on (telemetry::enabled(), DESIGN.md §13) the caller's span
// path is replayed on every worker so their subtrees nest under the
// launching span, and a passed ParallelStats* gets each worker's busy time
// and item count. With the recorder off the stats stay uncollected and the
// loop is the same strict identity as before — no clock reads, no
// allocations beyond the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/telemetry.h"
#include "util/timer.h"

namespace cbma::util {

/// Deterministic per-point seed: mixing the base seed with the point index
/// (splitmix64 finalizer) keeps results independent of sweep parallelism.
inline std::uint64_t point_seed(std::uint64_t base_seed, std::size_t point_index) {
  std::uint64_t x = base_seed + 0x9E3779B97F4A7C15ull * (point_index + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}

/// One parallel_for's worker-utilization report. Collected only when the
/// recorder is on (collected == true); item counts and the worker count
/// are deterministic for a given (n, max_workers), busy/wall times are
/// wall-clock. Publish it with telemetry::record_parallel(site, stats)
/// after the loop returns.
struct ParallelStats {
  std::size_t items = 0;    ///< n — indices the loop covered
  std::size_t workers = 0;  ///< pool size actually used (min(max_workers, n))
  std::uint64_t wall_ns = 0;  ///< spawn-to-join wall time of the region
  bool collected = false;     ///< true iff the recorder measured this run
  std::vector<std::uint64_t> worker_busy_ns;  ///< per-slot time inside f
  std::vector<std::uint64_t> worker_items;    ///< per-slot indices executed

  /// Load imbalance: max worker busy time ÷ mean worker busy time. 1.0 is
  /// perfectly balanced; ≈ workers means one worker did everything.
  double imbalance() const {
    if (worker_busy_ns.empty()) return 1.0;
    std::uint64_t max_busy = 0;
    std::uint64_t total_busy = 0;
    for (const std::uint64_t b : worker_busy_ns) {
      max_busy = std::max(max_busy, b);
      total_busy += b;
    }
    if (total_busy == 0) return 1.0;
    const double mean = static_cast<double>(total_busy) /
                        static_cast<double>(worker_busy_ns.size());
    return static_cast<double>(max_busy) / mean;
  }
};

/// Run f(0..n-1) across threads; f must only touch its own slot.
/// `max_workers` caps the pool (0 = hardware concurrency) — the sweep
/// golden test uses it to prove results are thread-count independent.
///
/// Exception safety: a throw escaping f(i) on a worker would reach the
/// thread boundary and std::terminate the whole process, so the first
/// exception is captured, the remaining indices are drained unexecuted,
/// every worker is joined, and the exception is rethrown on the calling
/// thread. Indices that completed before the failure keep their results
/// (partial sweeps stay usable); which later indices were skipped is
/// scheduling-dependent.
template <typename F>
void parallel_for(std::size_t n, F&& f, std::size_t max_workers = 0,
                  ParallelStats* stats = nullptr) {
  if (max_workers == 0) {
    max_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min<std::size_t>(max_workers, n);
  const bool recording = telemetry::enabled();
  const bool collect = recording && stats != nullptr;
  if (stats != nullptr) {
    // Plain stack stores either way; the vectors are touched (and the
    // clock read) only when the recorder asked for the measurement.
    stats->items = n;
    stats->workers = workers;
    stats->wall_ns = 0;
    stats->collected = collect;
    if (collect) {
      stats->worker_busy_ns.assign(workers, 0);
      stats->worker_items.assign(workers, 0);
    }
  }
  if (workers <= 1) {
    if (!collect) {
      for (std::size_t i = 0; i < n; ++i) f(i);
      return;
    }
    const std::uint64_t begin_ns = monotonic_ns();
    for (std::size_t i = 0; i < n; ++i) f(i);
    stats->wall_ns = monotonic_ns() - begin_ns;
    if (workers == 1) {
      stats->worker_busy_ns[0] = stats->wall_ns;
      stats->worker_items[0] = n;
    }
    return;
  }
  // Workers run on fresh threads, so the tree would root their spans
  // nowhere: replay the caller's current span path on each worker as
  // structural context, and the worker subtrees merge under the span that
  // launched them (net/round → net/cell_round → ...).
  const std::vector<telemetry::Span> caller_path =
      recording ? telemetry::current_path() : std::vector<telemetry::Span>{};
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const std::uint64_t begin_ns = collect ? monotonic_ns() : 0;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      if (recording) telemetry::enter_context(caller_path);
      std::uint64_t busy_ns = 0;
      std::uint64_t items = 0;
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) break;
        if (failed.load(std::memory_order_relaxed)) continue;  // drain
        const std::uint64_t item_begin_ns = collect ? monotonic_ns() : 0;
        try {
          f(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
        if (collect) {
          busy_ns += monotonic_ns() - item_begin_ns;
          ++items;
        }
      }
      if (collect) {
        // w is this worker's private slot; no lock needed.
        stats->worker_busy_ns[w] = busy_ns;
        stats->worker_items[w] = items;
      }
      if (recording) telemetry::exit_context(caller_path.size());
    });
  }
  for (auto& t : pool) t.join();
  if (collect) stats->wall_ns = monotonic_ns() - begin_ns;
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cbma::util
