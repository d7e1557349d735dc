// Hierarchical time-attribution profiler (DESIGN.md §13): a per-thread
// span stack that turns the existing telemetry::Span RAII scopes into a
// caller-path tree — for every distinct path of nested spans, how many
// times it ran, its inclusive wall time, and how much of that time was
// spent in same-thread child spans. Where the flat telemetry histograms
// (§7) answer "how long does rx/detect take", the tree answers "how much
// of net/round is detection vs channel synthesis" — the question ROADMAP
// item 1 (fleet-scale sharding) is gated on.
//
// The contract mirrors every other observability layer: **disabled
// profiling is a strict identity**. When enabled() is false (the default),
// ScopedSpan never calls in here, no thread sink is allocated, no clock is
// read and no RNG is touched, so every bench table and BENCH_*.json stays
// byte-identical. Enable with CBMA_PROFILE=<path> (the path receives the
// collapsed-stack flamegraph export) or programmatically via set_enabled().
//
// Mechanics: each thread owns a fixed-capacity node pool (kNodeCapacity
// nodes; exhaustion drops deeper paths and counts them, never allocates).
// on_span_enter walks/extends the current node's child list —
// O(distinct child spans), no hashing, no lock — and on_span_exit adds
// the duration to the node and to the parent's child_ns, which makes
//   exclusive = inclusive − child_ns
// an exact per-node identity (≥ 0 by clock nesting) that the export
// tooling verifies. Worker threads launched by util::parallel_for replay
// the caller's span path as zero-cost "context" nodes, so worker subtrees
// merge under the span that launched them (net/round → net/cell_round →
// rx/process) instead of becoming orphan roots; context nodes carry no
// time of their own, so cross-thread child sums may exceed the parent's
// wall time (that is parallelism, not an accounting bug — child_ns only
// ever counts same-thread children).
//
// Aggregation (merged_tree, parallel_stats) merges all sinks by caller
// path and must not race recording: call it only after workers joined,
// the same rule telemetry::snapshot() follows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/telemetry.h"

namespace cbma::util {
struct ParallelStats;  // util/parallel.h — record_parallel's payload
}  // namespace cbma::util

namespace cbma::profiler {

/// Per-thread node-pool capacity: distinct caller paths per thread. Deeper
/// or wider trees drop nodes (counted in TreeSnapshot::dropped) instead of
/// allocating — the pipeline's span vocabulary keeps real trees far below
/// this.
inline constexpr std::size_t kNodeCapacity = 512;

// --- master switch ---------------------------------------------------------

/// The CBMA_PROFILE switch (util/env_switch.h): the value is where
/// core::ProfilePlane writes the collapsed-stack flamegraph file.
bool enabled();
void set_enabled(bool on);
std::string export_path();
void set_export_path(std::string path);

// --- hot path (called by telemetry::ScopedSpan when enabled) ---------------

/// Descend into (or create) the child node for span `s` under the calling
/// thread's current node. Callers sample enabled() once at scope entry and
/// pair enter/exit unconditionally, so a mid-span flag flip cannot
/// unbalance the stack.
void on_span_enter(telemetry::Span s);

/// Credit `dur_ns` to the current node, fold it into the parent's
/// child_ns (same-thread attribution), and pop back to the parent.
void on_span_exit(telemetry::Span s, std::uint64_t dur_ns);

// --- parallel_for context propagation --------------------------------------

/// The calling thread's current span path, outermost first. parallel_for
/// captures this before spawning workers.
std::vector<telemetry::Span> current_path();

/// Replay `path` on the calling (worker) thread as structural "context"
/// nodes: they anchor the worker's subtree under the launching span but
/// record no count and no time of their own.
void enter_context(const std::vector<telemetry::Span>& path);

/// Pop `depth` context levels pushed by enter_context.
void exit_context(std::size_t depth);

// --- parallel_for worker-utilization reports -------------------------------

/// Per-site aggregate of every ParallelStats report published under one
/// label ("sweep/run", "net/round"): call/item/wall totals plus per-pool-
/// slot busy time and item counts summed across calls.
struct ParallelSiteStats {
  std::string site;
  std::uint64_t calls = 0;     ///< parallel_for invocations recorded
  std::uint64_t items = 0;     ///< Σ n over those invocations
  std::uint64_t wall_ns = 0;   ///< Σ wall time of the parallel regions
  std::uint64_t busy_ns = 0;   ///< Σ worker busy time (≤ wall × workers)
  double worst_imbalance = 1.0;  ///< max over calls of max-busy ÷ mean-busy
  std::vector<std::uint64_t> worker_busy_ns;  ///< per pool slot, summed
  std::vector<std::uint64_t> worker_items;    ///< per pool slot, summed
};

/// Publish one parallel_for's stats under `site`. No-op unless the
/// profiler is on and the stats were actually collected. Call from the
/// sequential context after the pool joined (how SweepRunner::run and
/// net::Network::run_round use it).
void record_parallel(const char* site, const util::ParallelStats& stats);

/// Merged per-site aggregates, sorted by site name. Sequential-only, like
/// merged_tree().
std::vector<ParallelSiteStats> parallel_stats();

// --- aggregation -----------------------------------------------------------

/// One node of the merged attribution tree. excl_ns() is exact — child_ns
/// only ever counted same-thread children, so inclusive ≥ child_ns holds
/// per thread and survives the merge.
struct MergedNode {
  telemetry::Span span = telemetry::Span::kTransmitTotal;
  std::uint64_t count = 0;     ///< completed occurrences of this path
  std::uint64_t incl_ns = 0;   ///< wall time inside this path
  std::uint64_t child_ns = 0;  ///< time in same-thread direct children
  std::vector<MergedNode> children;  ///< sorted by span id (deterministic)
  std::uint64_t excl_ns() const { return incl_ns - child_ns; }
};

struct TreeSnapshot {
  std::vector<MergedNode> roots;  ///< sorted by span id
  std::size_t threads = 0;        ///< sinks that recorded any node
  std::uint64_t dropped = 0;      ///< spans lost to pool exhaustion
};

/// Merge every thread sink by caller path. Must not race recording — call
/// after workers joined.
TreeSnapshot merged_tree();

/// Drop every sink's tree and the parallel-site aggregates. Sinks stay
/// registered (sink_count() unchanged). Sequential-only: no span may be
/// live on any thread.
void reset();

/// Registered per-thread sinks — 0 proves the off path never allocated.
std::size_t sink_count();

}  // namespace cbma::profiler
