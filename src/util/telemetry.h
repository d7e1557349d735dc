// Pipeline-wide tracing & metrics: RAII span timers, monotonic counters and
// a bounded flight recorder of per-frame structured events, all recorded
// into lock-free per-thread sinks and aggregated on demand.
//
// The contract that makes this safe to compile into every hot path:
// **disabled telemetry is a strict identity**. When enabled() is false (the
// default), ScopedSpan never reads the clock, count() and record_frame()
// return immediately, no thread sink is ever allocated, and no RNG is
// touched (telemetry never draws randomness at all) — so every existing
// bench table and BENCH_*.json stays byte-identical, the same contract
// rfsim::ImpairmentSuite pins for its stages. Enable with CBMA_TELEMETRY=1
// (or set_enabled(true)); capture per-event Chrome/Perfetto traces with
// CBMA_TRACE=<path> on top.
//
// Span and counter identities are compile-time enums, so the hot path is an
// array index into the calling thread's sink — no string hashing, no map,
// no lock. Sinks register once under a mutex on first use per thread and
// are owned by the process-lifetime registry (a worker thread exiting does
// not invalidate its recorded data). Aggregation (snapshot()) merges all
// sinks and must run while no worker is recording — in practice after
// parallel_for joined, which is how SweepRunner and the benches use it.
// Durations are histogrammed (log₂ buckets, 4 linear sub-buckets each) so
// percentiles cost O(1) memory per span; quantiles are accurate to the
// sub-bucket width (≤ 12.5 %). See DESIGN.md §7 for the naming scheme and
// the full observability contract.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.h"

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
  kBenchIteration,       ///< bench_kernels manual-timed iteration
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
  std::uint32_t tid = 0;  ///< registry-assigned thread index
};

// --- master switches -------------------------------------------------------

/// The CBMA_TELEMETRY switch (util/env_switch.h).
bool enabled();
void set_enabled(bool on);

/// The CBMA_TRACE switch: per-event trace capture (needs enabled() too);
/// trace_path() is where core::Telemetry writes the Chrome trace.
bool trace_enabled();
void set_trace_enabled(bool on);
std::string trace_path();

// --- hot-path recording ----------------------------------------------------

void record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns);
void add_count(Counter c, std::uint64_t n);
void record_frame(FrameTrace frame);  ///< seq/ts are stamped inside

inline void count(Counter c, std::uint64_t n = 1) {
  if (enabled()) add_count(c, n);
}

}  // namespace cbma::telemetry

/// Hierarchical-profiler hook (util/profiler, DESIGN.md §13): ScopedSpan
/// feeds the caller-path attribution tree whenever the profiler is live.
/// Forward-declared so every span site keeps its single telemetry.h
/// include; implemented in util/profiler.cpp. Signatures must match
/// util/profiler.h exactly.
namespace cbma::profiler {
bool enabled();
void on_span_enter(telemetry::Span s);
void on_span_exit(telemetry::Span s, std::uint64_t dur_ns);
}  // namespace cbma::profiler

namespace cbma::telemetry {

/// RAII span timer: reads the clock only when telemetry or the profiler is
/// enabled at construction, records on destruction. The off path costs two
/// relaxed atomic loads and nothing else — no clock read, no allocation.
/// The enabled flags are sampled once (bit 1 = telemetry, bit 2 =
/// profiler), so a mid-span flip cannot unbalance the profiler's stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span s) : span_(s) {
    const bool telem = enabled();
    const bool prof = profiler::enabled();
    if (telem || prof) {
      flags_ = static_cast<std::uint8_t>((telem ? 1u : 0u) | (prof ? 2u : 0u));
      if (prof) profiler::on_span_enter(s);
      start_ns_ = util::monotonic_ns();
    }
  }
  ~ScopedSpan() {
    if (flags_ == 0) return;
    const std::uint64_t dur_ns = util::monotonic_ns() - start_ns_;
    if ((flags_ & 1u) != 0) record_span(span_, start_ns_, dur_ns);
    if ((flags_ & 2u) != 0) profiler::on_span_exit(span_, dur_ns);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  std::uint64_t start_ns_ = 0;
  std::uint8_t flags_ = 0;
};

// --- duration histogram ----------------------------------------------------
// The log₂-octave / 4-linear-sub-bucket histogram every span duration lands
// in. Public because two consumers beyond snapshot() need the raw buckets:
// the metrics plane (util/metrics + core/metrics_plane) computes *per-window*
// percentiles from bucket deltas between samples, and the percentile edge
// tests pin the bucketing math itself.

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

/// Raw merged histogram of one span across every thread sink — the
/// windowing substrate: sample twice, subtract bucket-wise, and
/// histogram_quantile the delta for per-window percentiles.
struct SpanHistogram {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// Merged per-span raw histograms (every span, zero-count ones included so
/// callers can index by Span). Same safety contract as snapshot(): call
/// only while no worker is recording.
std::array<SpanHistogram, kSpanCount> span_histograms();

/// Merged raw counter values (zeros included, indexable by Counter). Same
/// safety contract as snapshot().
std::array<std::uint64_t, kCounterCount> counter_totals();

// --- aggregation -----------------------------------------------------------

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

struct Snapshot {
  std::vector<SpanSnapshot> spans;        ///< spans with count > 0 only
  std::vector<CounterSnapshot> counters;  ///< non-zero counters only
  std::vector<FrameTrace> frames;   ///< merged rings, seq order, last N
  std::vector<TraceEvent> events;   ///< merged, ts order (trace capture on)
  std::size_t threads = 0;          ///< sinks that recorded anything
};

/// Merge every thread sink. Must not race recording — call after workers
/// joined (SweepRunner::run returns ⇒ safe).
Snapshot snapshot();

/// Zero every sink (counts, histograms, rings, events). Sinks stay
/// registered; sink_count() is unchanged.
void reset();

/// Number of registered per-thread sinks — 0 proves the off path never
/// allocated (the telemetry-off identity test asserts this).
std::size_t sink_count();

/// Flight-recorder depth per thread (also the merged export cap). Applies
/// to sinks created after the call; default 256.
void set_flight_recorder_capacity(std::size_t frames);
std::size_t flight_recorder_capacity();

}  // namespace cbma::telemetry
