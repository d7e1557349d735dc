// Shared utilities for the experiment benches: trial-count/seed control via
// environment variables (CBMA_TRIALS, CBMA_SEED), deterministic parallel
// sweeps, and the SweepSpec builder every bench feeds into the
// SweepRunner/RunRecorder experiment API so each run is reproducible from
// its printed configuration and archived as BENCH_<name>.json.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/config.h"
#include "core/recorder.h"
#include "core/sweep.h"
#include "util/parallel.h"

namespace cbma::bench {

/// Strict positive-integer env parsing: anything other than a full decimal
/// integer in (0, LLONG_MAX] — stray suffixes, overflow, zero, negatives —
/// is diagnosed on stderr and the fallback is used. A malformed CBMA_TRIALS
/// silently becoming the default would invalidate a paper-scale run without
/// anyone noticing.
inline long long env_positive(const char* name, long long fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v <= 0) {
    std::fprintf(stderr,
                 "warning: ignoring %s='%s' (expected a positive integer); "
                 "using %lld\n",
                 name, env, fallback);
    return fallback;
  }
  return v;
}

/// Packets (or trials) per measurement point. Paper experiments use 1000;
/// the default keeps the full bench suite in CI-scale runtime. Override
/// with CBMA_TRIALS=1000 for paper-scale runs.
inline std::size_t trials(std::size_t fallback = 200) {
  return static_cast<std::size_t>(
      env_positive("CBMA_TRIALS", static_cast<long long>(fallback)));
}

/// Base seed for the bench (CBMA_SEED to override).
inline std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(
      env_positive("CBMA_SEED", 20190707));  // ICDCS 2019
}

/// Deterministic per-point seed for this bench's base seed (thin alias over
/// util::point_seed, which examples and tests share).
inline std::uint64_t point_seed(std::size_t point_index) {
  return util::point_seed(base_seed(), point_index);
}

/// Build this bench's SweepSpec with the shared trial/seed plumbing wired
/// in. `trials_per_point` is what the bench actually runs per point (pass
/// bench::trials(fallback)); axes may be empty for single-point benches.
inline core::SweepSpec spec(std::string name, std::string title,
                            std::string paper_ref, std::vector<core::Axis> axes,
                            std::size_t trials_per_point) {
  core::SweepSpec s;
  s.name = std::move(name);
  s.title = std::move(title);
  s.paper_ref = std::move(paper_ref);
  s.axes = std::move(axes);
  s.trials = trials_per_point;
  s.base_seed = base_seed();
  return s;
}

}  // namespace cbma::bench
