// Pipeline-wide observability store: RAII span timers, monotonic counters, a
// bounded flight recorder of per-frame structured events and the
// caller-path attribution tree, all recorded into one lock-free sink per
// thread, plus the signal-probe capture (util/probe.h) and the metric
// store (util/metrics.h). One registry owns all of it, one reset() clears
// all of it and one snapshot() copies all of it.
//
// One switch arms the span recorder: CBMA_TELEMETRY (or set_enabled), and
// every export path that reads the recorder arms it too — CBMA_TRACE,
// CBMA_METRICS and CBMA_PROFILE, by the same rule. When it is on, each
// ScopedSpan reads the clock once and feeds both views from that one
// duration, so they agree span for span (DESIGN.md §7, §13). The flat view
// keeps per-span duration histograms, counters and the flight recorder,
// plus per-event Chrome/Perfetto capture while CBMA_TRACE is on. The tree
// view keeps, for every distinct path of nested spans, how often it ran,
// its inclusive wall time and how much of that was spent in same-thread
// child spans, so exclusive = inclusive - child_ns holds exactly per node.
//
// The contract that makes this safe to compile into every hot path:
// **a disabled recorder is a strict identity**. With the switch off (the
// default), ScopedSpan never reads the clock, count() and
// record_frame() return immediately, no thread sink is ever allocated, and
// no RNG is touched (the recorder never draws randomness at all) — so
// every existing bench table and BENCH_*.json stays byte-identical, the
// same contract rfsim::ImpairmentSuite pins for its stages.
//
// Span and counter identities are compile-time enums, so the flat hot path
// is an array index into the calling thread's sink — no string hashing, no
// map, no lock. The tree hot path walks the current node's child list in a
// fixed per-thread node pool (kNodeCapacity; exhaustion drops deeper paths
// and counts them, never allocates). A thread takes a sink under the
// registry mutex on first use and hands it back when it exits; the next
// new thread records into it, so the recorded data stays aggregatable and
// the sink count is bounded by the peak number of concurrently recording
// threads. Workers launched by util::parallel_for adopt the caller's
// WorkerContext: its span path as zero-cost "context" nodes, so their
// subtrees merge under the span that launched them, and its probe labels,
// so their records file under the caller's sweep point. parallel_for also
// publishes its own worker-utilization report when given a site. Probe
// records and metric samples are written under the same registry mutex:
// they arrive per window, not per chip.
// snapshot() merges all sinks and must run while no worker is recording —
// in practice after parallel_for joined, which is how SweepRunner and the
// benches use it. Durations are histogrammed (log₂ buckets, 4 linear
// sub-buckets each) so percentiles cost O(1) memory per span; quantiles are
// accurate to the sub-bucket width (≤ 12.5 %).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/probe.h"
#include "util/timer.h"

namespace cbma::util {
struct ParallelStats;  // util/parallel.h — record_parallel's payload
}  // namespace cbma::util

namespace cbma::telemetry {

/// Every timed stage of the pipeline. Names follow "layer/stage"
/// (span_name); add new stages at the end and name them there.
enum class Span : std::uint8_t {
  kTransmitTotal,        ///< one CbmaSystem::transmit call, end to end
  kTransmitSpread,       ///< framing + spreading + modulation (chip expansion)
  kTransmitImpairments,  ///< tag-side fault-injection draws
  kChannelSynthesis,     ///< rfsim::Channel::receive_into window synthesis
  kRxProcess,            ///< rx::Receiver::process_iq, end to end
  kRxFrameSync,          ///< energy-envelope frame synchronization
  kRxDetect,             ///< correlation user detection (incl. SIC)
  kRxDecode,             ///< per-user coherent decode
  kSweepPoint,           ///< one SweepRunner grid-point body
  kSweepRun,             ///< one SweepRunner::run, end to end
  kNetRound,             ///< one net::Network::run_round, end to end
  kNetAssociate,         ///< association / hysteresis-roaming pass
  kNetCellRound,         ///< one cell's MAC round inside a network round
  kCount
};
inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);
const char* span_name(Span s);

/// Monotonic event counters ("layer.event" naming, counter_name).
enum class Counter : std::uint8_t {
  kTransmitPackets,       ///< transmit() calls
  kTransmitFramesSent,    ///< frames put on the air (sum of group sizes)
  kRxFramesDecoded,       ///< CRC+id verified frames
  kRxSyncAttempts,        ///< frame-sync triggers examined
  kRxDetections,          ///< correlation peaks above threshold
  kRxOutcomeOk,           ///< per-frame DecodeOutcome tallies…
  kRxOutcomeNoFrameSync,
  kRxOutcomeNotDetected,
  kRxOutcomeTruncated,
  kRxOutcomeBadCrc,
  kRxOutcomeIdMismatch,
  kChannelWindows,        ///< synthesized receive windows
  kChannelSamples,        ///< complex samples synthesized
  kImpairmentClockPerturbs,
  kImpairmentSwitchJitters,
  kImpairmentDropoutGates,     ///< envelopes gated by dropout bursts
  kImpairmentImpulsiveBursts,  ///< impulsive bursts injected
  kImpairmentAdcClippedSamples,
  kSweepPoints,           ///< grid points executed
  kSweepWorkers,          ///< worker threads launched across runs
  kArqOffered,
  kArqDelivered,
  kArqDropped,
  kArqTransmissions,
  kNodeSelectAbandoned,   ///< slots below the bad-ACK threshold
  kNodeSelectReplaced,    ///< slots actually swapped for a candidate
  kNodeSelectAnnealed,    ///< non-improving candidates accepted
  kRxDetectNaiveBatches,  ///< detection rounds, all untaken codes each
  kNetRoundsRun,          ///< multi-cell network MAC rounds completed
  kNetCellRounds,         ///< per-cell MAC rounds inside network rounds
  kNetTagRoams,           ///< tags re-associated by the roaming pass
  kNetIntercellInterferers,  ///< foreign-gateway leakage terms summed in
  kTraceEventsDropped,    ///< span occurrences past kMaxTraceEventsPerSink
  kCount
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
const char* counter_name(Counter c);

/// One frame's flight-recorder entry: the causal context the paper's
/// evaluation reasons about (who sent, how strongly, what the correlator
/// saw, why the frame lived or died, which faults were active).
struct FrameTrace {
  std::uint64_t seq = 0;        ///< global order stamp (assigned on record)
  std::uint64_t ts_ns = 0;      ///< util::monotonic_ns at record time
  std::uint32_t tag_id = 0;     ///< group slot / code index
  std::uint32_t pn_code_length = 0;
  double correlation = 0.0;     ///< normalized correlation peak
  double margin = 0.0;          ///< peak minus the detection threshold
  double cfo_hz = 0.0;          ///< carrier frequency offset on the air
  double power_dbm = 0.0;       ///< received backscatter power
  std::uint32_t impedance_level = 0;
  std::uint8_t outcome = 0;     ///< rx::DecodeOutcome as an integer
  std::uint8_t impairment_gates = 0;  ///< bit per enabled stage, see masks
};

/// FrameTrace::impairment_gates bit assignments (ImpairmentConfig order).
inline constexpr std::uint8_t kGateDropout = 1u << 0;
inline constexpr std::uint8_t kGateDrift = 1u << 1;
inline constexpr std::uint8_t kGateSwitching = 1u << 2;
inline constexpr std::uint8_t kGateImpulsive = 1u << 3;
inline constexpr std::uint8_t kGateAdc = 1u << 4;

/// One recorded span occurrence, kept only when trace capture is on — the
/// raw material of the Chrome/Perfetto timeline export.
struct TraceEvent {
  Span span = Span::kTransmitTotal;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< index of the sink that recorded it
};

/// Flight-recorder depth per sink, and the merged export cap.
inline constexpr std::size_t kFlightRecorderCapacity = 256;

/// Trace-capture cap per sink: a runaway trace keeps the first 64k events
/// each sink recorded instead of exhausting memory. Sinks are recycled
/// across threads, so every thread that holds a sink shares its budget;
/// the occurrences past it still feed the histograms and are counted in
/// Counter::kTraceEventsDropped.
inline constexpr std::size_t kMaxTraceEventsPerSink = 1u << 16;

/// Per-sink node-pool capacity of the caller-path tree: distinct caller
/// paths per sink. Deeper or wider trees drop nodes (counted in
/// TreeSnapshot::dropped) instead of allocating — the pipeline's span
/// vocabulary keeps real trees far below this.
inline constexpr std::size_t kNodeCapacity = 512;

// --- master switches -------------------------------------------------------

/// The span recorder's switch (util/env_switch.h): CBMA_TELEMETRY, or any
/// of CBMA_TRACE, CBMA_METRICS and CBMA_PROFILE.
bool enabled();
void set_enabled(bool on);

/// The CBMA_TRACE switch: per-event trace capture while the recorder is on
/// (set_trace_enabled(true) arms the recorder too; turning the trace off
/// leaves it on). trace_path() is where the plane table
/// (core/observability.h) writes the Chrome trace.
bool trace_enabled();
void set_trace_enabled(bool on);
std::string trace_path();

/// The CBMA_PROFILE export path: where the plane table writes the
/// collapsed-stack flamegraph file of the tree view.
std::string profile_path();
void set_profile_path(std::string path);

// --- hot-path recording ----------------------------------------------------

void record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns);
void add_count(Counter c, std::uint64_t n);
void record_frame(FrameTrace frame);  ///< seq/ts are stamped inside

inline void count(Counter c, std::uint64_t n = 1) {
  if (enabled()) add_count(c, n);
}

/// Span entry: descend into (or create) the tree's child node for `s`
/// under the calling thread's current node.
void enter_span(Span s);

/// Span exit: fold `dur_ns` into the span's histogram (and the trace
/// capture when it is on), credit it to the current tree node and its
/// parent's child_ns, and pop to the parent.
void exit_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns);

/// RAII span timer: reads the clock only when the recorder is on at
/// construction, records on destruction. The off path costs one relaxed
/// atomic load and nothing else — no clock read, no allocation. The switch
/// is sampled once at entry, so a mid-span flip cannot unbalance the tree's
/// stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span s) : span_(s), active_(enabled()) {
    if (active_) {
      enter_span(s);
      start_ns_ = util::monotonic_ns();
    }
  }
  ~ScopedSpan() {
    if (active_) exit_span(span_, start_ns_, util::monotonic_ns() - start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_;
  std::uint64_t start_ns_ = 0;
};

// --- parallel_for worker context ------------------------------------------

/// What a parallel_for worker takes on from the thread that launched it:
/// the caller's span path (replayed as structural "context" nodes, so the
/// worker's subtree merges under the launching span) and its probe labels —
/// the sweep point (probe::ScopedPoint) and the index of the innermost
/// parallel_for item, which orders a point's records across nested cell
/// workers (DESIGN.md §8). parallel_for captures it once on the caller,
/// and only while the recorder or the probe is on.
struct WorkerContext {
  std::vector<Span> path;   ///< outermost first; empty unless recording
  std::uint64_t point = 0;  ///< probe sweep point
  std::uint64_t item = 0;   ///< innermost parallel_for item

  /// The calling thread's context; `with_path` = false leaves the path out
  /// (the inline path already runs inside it).
  static WorkerContext capture(bool with_path = true);
};

/// RAII: runs one parallel_for item in `ctx` — its path pushed on top of
/// the thread's own, its point and `item` as the probe labels — and
/// restores the thread's own on destruction, so a throw unwinds it too.
class ScopedContext {
 public:
  ScopedContext(const WorkerContext& ctx, std::uint64_t item);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  std::size_t depth_;
  std::uint64_t point_;  ///< the thread's own labels, restored on exit
  std::uint64_t item_;
};

// --- duration histogram ----------------------------------------------------
// The log₂-octave / 4-linear-sub-bucket histogram every span duration lands
// in. The metrics plane's window close (metrics::advance_window) computes
// *per-window* percentiles from bucket deltas with it, and the percentile
// edge tests pin the bucketing math itself.

/// Bucket count covering the full uint64 ns range (indices 0–7 are exact
/// small values; above that each octave splits into quarters).
inline constexpr std::size_t kHistogramBuckets = 256;

/// The bucket a duration lands in. Quantile error ≤ 12.5 % (sub-bucket
/// width), exact below 8 ns.
std::size_t histogram_bucket_of(std::uint64_t ns);

/// Midpoint of a bucket — the value quantiles report for it.
double histogram_bucket_mid(std::size_t idx);

/// Quantile q ∈ [0,1] over a raw bucket array holding `count` samples:
/// walks cumulative counts to rank q·(count−1). Returns `fallback` when the
/// histogram is empty or the rank walks off the end (count inconsistent
/// with the buckets).
double histogram_quantile(const std::uint64_t* buckets, std::uint64_t count,
                          double q, double fallback);

// --- parallel_for worker-utilization reports -------------------------------

/// Fold one parallel_for's measurement into the report of `site`.
/// parallel_for calls it after its workers joined, when it was given a site
/// and the recorder was on.
void record_parallel(const char* site, const util::ParallelStats& stats);

// --- the one snapshot ------------------------------------------------------

struct SpanSnapshot {
  Span id = Span::kTransmitTotal;
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;  ///< histogram quantiles (≤ 12.5 % bucket error)
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

struct CounterSnapshot {
  Counter id = Counter::kTransmitPackets;
  std::string name;
  std::uint64_t value = 0;
};

/// One node of the merged attribution tree. excl_ns() is exact — child_ns
/// only ever counted same-thread children, so inclusive ≥ child_ns holds
/// per thread and survives the merge.
struct MergedNode {
  Span span = Span::kTransmitTotal;
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

/// Per-site aggregate of every parallel_for run under one site name
/// ("sweep/run", "net/round"): call/item/wall totals plus per-pool-
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

/// Everything the registry holds, merged: the flat view, the caller-path
/// tree, the parallel sites, the probe capture and the metric store.
struct Snapshot {
  std::vector<SpanSnapshot> spans;        ///< spans with count > 0 only
  std::vector<CounterSnapshot> counters;  ///< non-zero counters only
  std::vector<FrameTrace> frames;   ///< merged rings, seq order, last N
  std::vector<TraceEvent> events;   ///< merged, ts order (trace capture on)
  std::size_t threads = 0;          ///< sinks that recorded flat data
  TreeSnapshot tree;
  std::vector<ParallelSiteStats> parallel;  ///< sorted by site name
  probe::Capture probe;
  metrics::Store metrics;
};

/// Merge every sink and copy both stores under the registry lock. Must not
/// race span recording — call after workers joined (SweepRunner::run
/// returns ⇒ safe).
Snapshot snapshot();

// --- lifecycle -------------------------------------------------------------

/// Clear everything the registry holds: every sink (counts, histograms,
/// rings, events, trees), the parallel sites, the probe capture, the metric
/// store and its window baselines. Switches and paths stay as they are, and
/// so do the sinks (sink_count() is unchanged). Sequential-only: no span
/// may be live on any thread.
void reset();

/// Number of sinks the registry has allocated — 0 proves the off path
/// never allocated (the identity tests assert this).
std::size_t sink_count();

}  // namespace cbma::telemetry
