// Deterministic sweep machinery shared by benches, examples and tests:
// a work-stealing parallel_for over hardware threads plus the per-point
// seed mixer that keeps Monte-Carlo results independent of how the sweep
// is parallelized. Promoted from bench/common.h so every consumer of the
// library can run paper-scale sweeps the same way.
//
// parallel_for is templated on the callable (no std::function wrapper, so
// the hot sweep path pays no type-erasure allocation) and owns its whole
// region. Callers say what to run and, optionally, under which site name.
// While the recorder or the probe is on, each worker adopts the caller's
// telemetry::WorkerContext — span path and probe labels (DESIGN.md §8,
// §13) — and every item is labelled with its index; with a site and the
// recorder on, the loop measures each worker's busy time and item count
// and publishes the report under the site itself. With both planes off the
// loop is the same strict identity as before: the inline path is a plain
// loop, and nothing reads the clock or allocates beyond the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/probe.h"
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

/// One parallel_for's worker-utilization measurement, as parallel_for
/// hands it to telemetry::record_parallel. Item counts are deterministic
/// for a given (n, max_workers); busy/wall times are wall-clock.
struct ParallelStats {
  std::size_t items = 0;      ///< n — indices the loop covered
  std::uint64_t wall_ns = 0;  ///< wall time of the whole region
  std::vector<std::uint64_t> worker_busy_ns;  ///< per-slot time inside f
  std::vector<std::uint64_t> worker_items;    ///< per-slot indices executed
};

/// The pool size parallel_for uses for n items: min(max_workers, n), where
/// max_workers = 0 means the hardware concurrency.
inline std::size_t worker_count(std::size_t n, std::size_t max_workers) {
  if (max_workers == 0) {
    max_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(max_workers, n);
}

/// Run f(0..n-1) across threads; f must only touch its own slot.
/// `max_workers` caps the pool (0 = hardware concurrency) — the sweep
/// golden test uses it to prove results are thread-count independent. A
/// pool of one runs inline on the calling thread. `site` names the
/// worker-utilization report the loop publishes while the recorder is on
/// (telemetry::snapshot().parallel); nullptr publishes none.
///
/// Exception safety: a throw escaping f(i) on a worker would reach the
/// thread boundary and std::terminate the whole process, so the first
/// exception is captured, the remaining indices are drained unexecuted,
/// every worker is joined, and the exception is rethrown on the calling
/// thread, whose context is left as it was. Indices that completed before
/// the failure keep their results (partial sweeps stay usable); which
/// later indices were skipped is scheduling-dependent. A failed loop
/// publishes no report.
template <typename F>
void parallel_for(std::size_t n, F&& f, std::size_t max_workers = 0,
                  const char* site = nullptr) {
  const std::size_t workers = worker_count(n, max_workers);
  const bool observed = telemetry::enabled() || probe::enabled();
  if (workers <= 1 && !observed) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  // Workers start on fresh threads, so they take on the caller's whole
  // context; the inline path already runs inside it and only relabels the
  // item.
  const telemetry::WorkerContext context =
      observed ? telemetry::WorkerContext::capture(/*with_path=*/workers > 1)
               : telemetry::WorkerContext{};
  const bool measure = site != nullptr && telemetry::enabled();
  ParallelStats stats;
  stats.items = n;
  stats.worker_busy_ns.assign(measure ? workers : 0, 0);
  stats.worker_items.assign(measure ? workers : 0, 0);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Worker slot w: takes indices until none is left, draining them
  // unexecuted once any worker failed. Each slot is written by one thread.
  const auto work = [&](std::size_t w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) continue;
      const telemetry::ScopedContext scope(context, i);
      const std::uint64_t begin_ns = measure ? monotonic_ns() : 0;
      try {
        f(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      if (measure) {
        stats.worker_busy_ns[w] += monotonic_ns() - begin_ns;
        ++stats.worker_items[w];
      }
    }
  };
  const std::uint64_t begin_ns = measure ? monotonic_ns() : 0;
  if (workers <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  if (!measure) return;
  stats.wall_ns = monotonic_ns() - begin_ns;
  telemetry::record_parallel(site, stats);
}

}  // namespace cbma::util
