#include "util/telemetry.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>

#include "util/env_switch.h"

namespace cbma::telemetry {

// ---------------------------------------------------------------------------
// Duration histogram: log₂ octaves with 4 linear sub-buckets each. Index 0–7
// holds exact small values; above that each octave splits into quarters, so
// any quantile is within one sub-bucket (≤ 12.5 %) of exact. 256 buckets
// cover the full uint64 range.
// ---------------------------------------------------------------------------

std::size_t histogram_bucket_of(std::uint64_t ns) {
  if (ns < 8) return static_cast<std::size_t>(ns);
  const int msb = std::bit_width(ns) - 1;  // ≥ 3
  const auto sub = static_cast<std::size_t>((ns >> (msb - 2)) & 3u);
  return 8 + static_cast<std::size_t>(msb - 3) * 4 + sub;
}

double histogram_bucket_mid(std::size_t idx) {
  if (idx < 8) return static_cast<double>(idx);
  const std::size_t msb = (idx - 8) / 4 + 3;
  const std::size_t sub = (idx - 8) % 4;
  const double lower =
      static_cast<double>((4u + sub)) * static_cast<double>(1ull << (msb - 2));
  const double width = static_cast<double>(1ull << (msb - 2));
  return lower + width / 2.0;
}

double histogram_quantile(const std::uint64_t* buckets, std::uint64_t count,
                          double q, double fallback) {
  if (count == 0) return fallback;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > target) return histogram_bucket_mid(b);
  }
  return fallback;
}

namespace {

struct SpanAccum {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = ~0ull;
  std::uint64_t max_ns = 0;
  std::uint32_t hist[kHistogramBuckets] = {};
};

/// Per-event capture cap per thread: a runaway trace degrades to "first
/// 64k events per thread" instead of exhausting memory.
constexpr std::size_t kMaxTraceEventsPerThread = 1u << 16;

struct ThreadSink {
  SpanAccum spans[kSpanCount];
  std::uint64_t counters[kCounterCount] = {};
  std::vector<FrameTrace> ring;  ///< flight recorder, ring.size() == capacity
  std::size_t ring_next = 0;
  std::size_t ring_filled = 0;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;

  void clear() {
    for (auto& s : spans) s = SpanAccum{};
    for (auto& c : counters) c = 0;
    ring_next = 0;
    ring_filled = 0;
    events.clear();
  }
};

/// Owns every sink for the life of the process: a worker thread exiting
/// leaves its recorded data aggregatable, and the thread_local below is a
/// plain pointer with no destructor ordering hazards.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  ThreadSink* acquire() {
    const std::lock_guard<std::mutex> lock(mu_);
    auto sink = std::make_unique<ThreadSink>();
    sink->tid = static_cast<std::uint32_t>(sinks_.size());
    sink->ring.resize(ring_capacity_.load(std::memory_order_relaxed));
    sinks_.push_back(std::move(sink));
    return sinks_.back().get();
  }

  template <typename F>
  void for_each(F&& f) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sinks_) f(*s);
  }

  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mu_);
    return sinks_.size();
  }

  std::atomic<std::size_t>& ring_capacity() { return ring_capacity_; }
  std::atomic<std::uint64_t>& frame_seq() { return frame_seq_; }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
  std::atomic<std::size_t> ring_capacity_{256};
  std::atomic<std::uint64_t> frame_seq_{0};
};

thread_local ThreadSink* t_sink = nullptr;

ThreadSink& sink() {
  if (t_sink == nullptr) t_sink = Registry::instance().acquire();
  return *t_sink;
}

util::EnvSwitch& telemetry_switch() {
  // The metrics plane samples these counters and spans, so CBMA_METRICS
  // turns telemetry on from the first read, whichever plane is read first.
  static util::EnvSwitch s("CBMA_TELEMETRY", "CBMA_METRICS");
  return s;
}

util::EnvSwitch& trace_switch() {
  static util::EnvSwitch s("CBMA_TRACE");
  return s;
}

}  // namespace

const char* span_name(Span s) {
  switch (s) {
    case Span::kTransmitTotal: return "transmit/total";
    case Span::kTransmitSpread: return "transmit/spread";
    case Span::kTransmitImpairments: return "transmit/impairments";
    case Span::kChannelSynthesis: return "channel/synthesis";
    case Span::kRxProcess: return "rx/process";
    case Span::kRxFrameSync: return "rx/frame_sync";
    case Span::kRxDetect: return "rx/detect";
    case Span::kRxDecode: return "rx/decode";
    case Span::kSweepPoint: return "sweep/point";
    case Span::kSweepRun: return "sweep/run";
    case Span::kBenchIteration: return "bench/iteration";
    case Span::kNetRound: return "net/round";
    case Span::kNetAssociate: return "net/associate";
    case Span::kNetCellRound: return "net/cell_round";
    case Span::kCount: break;
  }
  return "unknown";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kTransmitPackets: return "transmit.packets";
    case Counter::kTransmitFramesSent: return "transmit.frames_sent";
    case Counter::kRxFramesDecoded: return "rx.frames_decoded";
    case Counter::kRxSyncAttempts: return "rx.sync_attempts";
    case Counter::kRxDetections: return "rx.detections";
    case Counter::kRxOutcomeOk: return "rx.outcome.ok";
    case Counter::kRxOutcomeNoFrameSync: return "rx.outcome.no_frame_sync";
    case Counter::kRxOutcomeNotDetected: return "rx.outcome.not_detected";
    case Counter::kRxOutcomeTruncated: return "rx.outcome.truncated";
    case Counter::kRxOutcomeBadCrc: return "rx.outcome.bad_crc";
    case Counter::kRxOutcomeIdMismatch: return "rx.outcome.id_mismatch";
    case Counter::kChannelWindows: return "channel.windows";
    case Counter::kChannelSamples: return "channel.samples";
    case Counter::kImpairmentClockPerturbs: return "impairment.clock_perturbs";
    case Counter::kImpairmentSwitchJitters: return "impairment.switch_jitters";
    case Counter::kImpairmentDropoutGates: return "impairment.dropout_gates";
    case Counter::kImpairmentImpulsiveBursts:
      return "impairment.impulsive_bursts";
    case Counter::kImpairmentAdcClippedSamples:
      return "impairment.adc_clipped_samples";
    case Counter::kSweepPoints: return "sweep.points";
    case Counter::kSweepWorkers: return "sweep.workers";
    case Counter::kArqOffered: return "arq.offered";
    case Counter::kArqDelivered: return "arq.delivered";
    case Counter::kArqDropped: return "arq.dropped";
    case Counter::kArqTransmissions: return "arq.transmissions";
    case Counter::kNodeSelectAbandoned: return "node_select.abandoned";
    case Counter::kNodeSelectReplaced: return "node_select.replaced";
    case Counter::kNodeSelectAnnealed: return "node_select.annealed";
    case Counter::kRxDetectNaiveBatches: return "rx.detect.naive_batches";
    case Counter::kNetRoundsRun: return "net.rounds";
    case Counter::kNetCellRounds: return "net.cell_rounds";
    case Counter::kNetTagRoams: return "net.roams";
    case Counter::kNetIntercellInterferers: return "net.intercell_interferers";
    case Counter::kCount: break;
  }
  return "unknown";
}

bool enabled() { return telemetry_switch().on(); }
void set_enabled(bool on) { telemetry_switch().set_on(on); }

bool trace_enabled() { return trace_switch().on(); }
void set_trace_enabled(bool on) { trace_switch().set_on(on); }

std::string trace_path() { return trace_switch().path(); }

void record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!enabled()) return;
  auto& sk = sink();
  auto& acc = sk.spans[static_cast<std::size_t>(s)];
  ++acc.count;
  acc.total_ns += dur_ns;
  acc.min_ns = std::min(acc.min_ns, dur_ns);
  acc.max_ns = std::max(acc.max_ns, dur_ns);
  ++acc.hist[histogram_bucket_of(dur_ns)];
  if (trace_enabled() && sk.events.size() < kMaxTraceEventsPerThread) {
    sk.events.push_back({s, start_ns, dur_ns, sk.tid});
  }
}

void add_count(Counter c, std::uint64_t n) {
  if (!enabled()) return;
  sink().counters[static_cast<std::size_t>(c)] += n;
}

void record_frame(FrameTrace frame) {
  if (!enabled()) return;
  auto& sk = sink();
  if (sk.ring.empty()) return;  // capacity 0: flight recorder off
  frame.seq = Registry::instance().frame_seq().fetch_add(
      1, std::memory_order_relaxed);
  frame.ts_ns = util::monotonic_ns();
  sk.ring[sk.ring_next] = frame;
  sk.ring_next = (sk.ring_next + 1) % sk.ring.size();
  sk.ring_filled = std::min(sk.ring_filled + 1, sk.ring.size());
}

Snapshot snapshot() {
  Snapshot out;
  std::uint64_t counters[kCounterCount] = {};
  SpanAccum spans[kSpanCount];

  Registry::instance().for_each([&](ThreadSink& sk) {
    bool any = false;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      counters[i] += sk.counters[i];
      any |= sk.counters[i] != 0;
    }
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const auto& a = sk.spans[i];
      if (a.count == 0) continue;
      any = true;
      auto& m = spans[i];
      m.count += a.count;
      m.total_ns += a.total_ns;
      m.min_ns = std::min(m.min_ns, a.min_ns);
      m.max_ns = std::max(m.max_ns, a.max_ns);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        m.hist[b] += a.hist[b];
      }
    }
    for (std::size_t k = 0; k < sk.ring_filled; ++k) {
      out.frames.push_back(sk.ring[k]);
    }
    out.events.insert(out.events.end(), sk.events.begin(), sk.events.end());
    if (any || sk.ring_filled > 0 || !sk.events.empty()) ++out.threads;
  });

  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const auto& m = spans[i];
    if (m.count == 0) continue;
    SpanSnapshot s;
    s.id = static_cast<Span>(i);
    s.name = span_name(s.id);
    s.count = m.count;
    s.total_ns = m.total_ns;
    s.min_ns = m.min_ns;
    s.max_ns = m.max_ns;
    s.mean_ns = static_cast<double>(m.total_ns) / static_cast<double>(m.count);
    // Histogram quantiles: walk cumulative counts to the target rank.
    std::uint64_t wide[kHistogramBuckets];
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) wide[b] = m.hist[b];
    const auto fallback = static_cast<double>(m.max_ns);
    s.p50_ns = histogram_quantile(wide, m.count, 0.50, fallback);
    s.p90_ns = histogram_quantile(wide, m.count, 0.90, fallback);
    s.p99_ns = histogram_quantile(wide, m.count, 0.99, fallback);
    out.spans.push_back(std::move(s));
  }

  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counters[i] == 0) continue;
    out.counters.push_back(
        {static_cast<Counter>(i), counter_name(static_cast<Counter>(i)),
         counters[i]});
  }

  std::sort(out.frames.begin(), out.frames.end(),
            [](const FrameTrace& a, const FrameTrace& b) { return a.seq < b.seq; });
  const std::size_t cap = flight_recorder_capacity();
  if (out.frames.size() > cap) {
    out.frames.erase(out.frames.begin(),
                     out.frames.end() - static_cast<std::ptrdiff_t>(cap));
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

std::array<SpanHistogram, kSpanCount> span_histograms() {
  std::array<SpanHistogram, kSpanCount> out{};
  Registry::instance().for_each([&](ThreadSink& sk) {
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const auto& a = sk.spans[i];
      if (a.count == 0) continue;
      out[i].count += a.count;
      out[i].total_ns += a.total_ns;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out[i].buckets[b] += a.hist[b];
      }
    }
  });
  return out;
}

std::array<std::uint64_t, kCounterCount> counter_totals() {
  std::array<std::uint64_t, kCounterCount> out{};
  Registry::instance().for_each([&](ThreadSink& sk) {
    for (std::size_t i = 0; i < kCounterCount; ++i) out[i] += sk.counters[i];
  });
  return out;
}

void reset() {
  Registry::instance().for_each([](ThreadSink& sk) { sk.clear(); });
  Registry::instance().frame_seq().store(0, std::memory_order_relaxed);
}

std::size_t sink_count() { return Registry::instance().size(); }

void set_flight_recorder_capacity(std::size_t frames) {
  Registry::instance().ring_capacity().store(frames, std::memory_order_relaxed);
}

std::size_t flight_recorder_capacity() {
  return Registry::instance().ring_capacity().load(std::memory_order_relaxed);
}

}  // namespace cbma::telemetry
