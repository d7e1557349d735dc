#include "util/telemetry.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <utility>

#include "util/env_switch.h"
#include "util/parallel.h"

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

/// One caller-path node of the tree view. Children form a singly-linked
/// list off the parent (new children prepend); sibling lists are short —
/// the span vocabulary bounds the fan-out — so the linear scan beats any
/// hashing.
struct Node {
  Span span = Span::kTransmitTotal;
  std::int32_t parent = -1;
  std::int32_t first_child = -1;
  std::int32_t next_sibling = -1;
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t child_ns = 0;
  /// Structural replica of a parallel_for caller path: records no time of
  /// its own, and child exits must not fold into it (its inclusive time
  /// stays 0, so folding would drive exclusive time negative).
  bool context = false;
};

/// Everything recorded by the threads that held this sink, one at a time:
/// the flat view (span histograms, counters, trace events) and the tree
/// view (node pool, roots, the live path).
struct ThreadSink {
  SpanAccum spans[kSpanCount];
  std::uint64_t counters[kCounterCount] = {};
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;

  std::vector<Node> pool;           ///< reserved to kNodeCapacity once
  std::vector<std::int32_t> roots;  ///< top-level nodes
  std::int32_t current = -1;        ///< innermost live node (-1 = none)
  std::size_t skip_depth = 0;       ///< live spans beyond pool capacity
  std::uint64_t dropped = 0;

  Node& node(std::int32_t i) { return pool[static_cast<std::size_t>(i)]; }
  const Node& node(std::int32_t i) const {
    return pool[static_cast<std::size_t>(i)];
  }

  bool has_flat_data() const {
    for (const auto& s : spans) {
      if (s.count != 0) return true;
    }
    for (const auto c : counters) {
      if (c != 0) return true;
    }
    return !events.empty();
  }

  void clear() {
    for (auto& s : spans) s = SpanAccum{};
    for (auto& c : counters) c = 0;
    events.clear();
    pool.clear();
    roots.clear();
    current = -1;
    skip_depth = 0;
    dropped = 0;
  }
};

/// Raw merged histogram of one span across every sink — the windowing
/// substrate: advance_window() subtracts the previous close's copy
/// bucket-wise and takes per-window quantiles of the delta.
struct SpanHistogram {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  ///< meaningful only when count > 0
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// One metric series: a fixed ring of its latest window points.
struct Series {
  std::string unit;
  std::array<metrics::SeriesPoint, metrics::kWindowCapacity> ring{};
  std::size_t next = 0;
  std::size_t filled = 0;
};

/// A kept record's export key (point, item, capture seq) and its slot in
/// its store's vector.
using KeptKey =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::size_t>;

/// Where a new record with export `key` goes among one store's `kept`
/// records. A full store keeps the `cap` records with the smallest export
/// key (point, item, capture seq); each (point, item) records on one thread
/// in order, so which records survive does not depend on how threads
/// interleave. Returns the slot to write: the key's own (the store's size)
/// while the store has room, the evicted record's when the newcomer is
/// below the largest kept key, none when it is dropped. A full store loses
/// one record either way, counted in `dropped`.
std::optional<std::size_t> admit(std::vector<KeptKey>& kept, std::size_t cap,
                                 KeptKey key, std::size_t& dropped) {
  if (kept.size() >= cap) {
    ++dropped;
    if (key > kept.front()) return std::nullopt;
    std::pop_heap(kept.begin(), kept.end());
    std::get<3>(key) = std::get<3>(kept.back());
    kept.pop_back();
  }
  kept.push_back(key);
  std::push_heap(kept.begin(), kept.end());
  return std::get<3>(key);
}

/// The signal-probe taps (util/probe.h) as recorded. Each tap keeps a
/// max-heap of its kept records' keys, so a full tap finds the record a
/// smaller newcomer evicts.
struct ProbeStore {
  probe::Capture capture;
  std::array<std::vector<KeptKey>, probe::kTapCount> tap_keys;
};

/// The frame log as recorded, kept under admit() with its key heap.
struct FrameLog {
  std::vector<FrameRow> rows;
  std::vector<KeptKey> keys;
  std::size_t dropped = 0;
};

/// The metric store (util/metrics.h), keyed by (name, scope) so the same
/// metric fans out across cells without colliding with its global rollup,
/// plus the merged telemetry totals at the last window close, which the
/// next close subtracts.
struct MetricStore {
  /// Orders (name, scope) keys and finds one by a pair of string_views, so
  /// a push builds the key strings only when it inserts a new series.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      using View = std::pair<std::string_view, std::string_view>;
      return View(a.first, a.second) < View(b.first, b.second);
    }
  };
  std::map<std::pair<std::string, std::string>, Series, KeyLess> series;
  std::vector<metrics::Event> events;
  std::uint64_t window = 0;  ///< open window index = windows closed so far
  std::uint64_t event_seq = 0;
  std::uint64_t dropped_points = 0;
  std::uint64_t dropped_series = 0;
  std::uint64_t dropped_events = 0;
  std::array<std::uint64_t, kCounterCount> prev_counters{};
  std::array<SpanHistogram, kSpanCount> prev_spans{};
};

/// The one observability store. It owns every sink for the life of the
/// process — a sink whose thread exited waits in `idle` for the next new
/// thread, its data still aggregatable — plus the parallel_for site table,
/// the probe capture and the metric store, all under `mu`. The span hot
/// path never takes the lock; probe and metric writes do.
struct Registry {
  static Registry& instance() {
    static Registry r;
    return r;
  }

  ThreadSink* acquire() {
    const std::lock_guard<std::mutex> lock(mu);
    if (!idle.empty()) {
      ThreadSink* reused = idle.back();
      idle.pop_back();
      return reused;
    }
    auto sink = std::make_unique<ThreadSink>();
    sink->tid = static_cast<std::uint32_t>(sinks.size());
    sinks.push_back(std::move(sink));
    return sinks.back().get();
  }

  void release(ThreadSink* sink) {
    const std::lock_guard<std::mutex> lock(mu);
    idle.push_back(sink);
  }

  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSink>> sinks;
  std::vector<ThreadSink*> idle;
  std::map<std::string, ParallelSiteStats> sites;
  std::uint64_t next_seq = 0;  ///< one capture order across taps and frames
  FrameLog frames;
  ProbeStore probe;
  MetricStore metrics;
};

thread_local ThreadSink* t_sink = nullptr;

/// The probe labels stamped on the calling thread's records: the sweep
/// point (probe::ScopedPoint) and the innermost parallel_for item
/// (ScopedContext).
thread_local std::uint64_t t_point = 0;
thread_local std::uint64_t t_item = 0;

/// Hands the thread's sink back to the registry when the thread exits.
/// Only sink()'s slow path touches it, so the recording paths read the
/// plain pointer above and never pay a thread_local destructor guard.
struct SinkLease {
  SinkLease() = default;
  SinkLease(const SinkLease&) = delete;
  SinkLease& operator=(const SinkLease&) = delete;
  ~SinkLease() {
    if (sink != nullptr) Registry::instance().release(sink);
    t_sink = nullptr;
  }
  ThreadSink* sink = nullptr;
};

thread_local SinkLease t_lease;

ThreadSink& sink() {
  if (t_sink == nullptr) {
    t_sink = t_lease.sink = Registry::instance().acquire();
  }
  return *t_sink;
}

util::EnvSwitch& telemetry_switch() {
  // Every export path reads the recorder, so each one turns it on from the
  // first read, whichever plane is read first; metrics::set_enabled(true)
  // and set_trace_enabled(true) arm it by the same rule.
  static util::EnvSwitch s("CBMA_TELEMETRY",
                           {"CBMA_TRACE", "CBMA_METRICS", "CBMA_PROFILE"});
  return s;
}

util::EnvSwitch& metrics_switch() {
  static util::EnvSwitch s("CBMA_METRICS");
  return s;
}

util::EnvSwitch& trace_switch() {
  static util::EnvSwitch s("CBMA_TRACE");
  return s;
}

/// Holds CBMA_PROFILE's export path; the variable's on/off half arms the
/// recorder through telemetry_switch().
util::EnvSwitch& profile_switch() {
  static util::EnvSwitch s("CBMA_PROFILE");
  return s;
}

void record_flat(ThreadSink& sk, Span s, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  auto& acc = sk.spans[static_cast<std::size_t>(s)];
  ++acc.count;
  acc.total_ns += dur_ns;
  acc.min_ns = std::min(acc.min_ns, dur_ns);
  acc.max_ns = std::max(acc.max_ns, dur_ns);
  ++acc.hist[histogram_bucket_of(dur_ns)];
  if (trace_enabled()) {
    if (sk.events.size() < kMaxTraceEventsPerSink) {
      sk.events.push_back({s, start_ns, dur_ns, sk.tid});
    } else {
      ++sk.counters[static_cast<std::size_t>(Counter::kTraceEventsDropped)];
    }
  }
}

/// Descend into (or create) the child of the current node for span `s`;
/// on pool exhaustion count the span as dropped and skip it (and every
/// span nested in it) until it exits.
void push(ThreadSink& sk, Span s, bool context) {
  if (sk.skip_depth > 0) {
    ++sk.skip_depth;
    ++sk.dropped;
    return;
  }
  std::int32_t found = -1;
  if (sk.current < 0) {
    for (const std::int32_t r : sk.roots) {
      if (sk.node(r).span == s) {
        found = r;
        break;
      }
    }
  } else {
    for (std::int32_t i = sk.node(sk.current).first_child; i >= 0;
         i = sk.node(i).next_sibling) {
      if (sk.node(i).span == s) {
        found = i;
        break;
      }
    }
  }
  if (found < 0) {
    if (sk.pool.size() >= kNodeCapacity) {
      ++sk.skip_depth;
      ++sk.dropped;
      return;
    }
    if (sk.pool.capacity() == 0) sk.pool.reserve(kNodeCapacity);
    Node n;
    n.span = s;
    n.parent = sk.current;
    n.context = context;
    found = static_cast<std::int32_t>(sk.pool.size());
    if (sk.current < 0) {
      sk.roots.push_back(found);
    } else {
      auto& parent = sk.node(sk.current);
      n.next_sibling = parent.first_child;
      parent.first_child = found;
    }
    sk.pool.push_back(n);
  } else if (!context) {
    // A real span re-entering a node first created as context claims it:
    // the node now records time, so child folding must apply to it.
    sk.node(found).context = false;
  }
  sk.current = found;
}

void pop(ThreadSink& sk, std::uint64_t dur_ns, bool context) {
  if (sk.skip_depth > 0) {
    --sk.skip_depth;
    return;
  }
  if (sk.current < 0) return;  // unbalanced exit — defensive, never expected
  auto& node = sk.node(sk.current);
  if (!context) {
    ++node.count;
    node.incl_ns += dur_ns;
  }
  sk.current = node.parent;
  if (!context && node.parent >= 0) {
    auto& parent = sk.node(node.parent);
    if (!parent.context) parent.child_ns += dur_ns;
  }
}

/// Merge sink node `i` and its subtree into `dst`, keyed by span.
void merge_node(std::map<int, MergedNode>& dst, const ThreadSink& sk,
                std::int32_t i) {
  const Node& n = sk.node(i);
  auto& m = dst[static_cast<int>(n.span)];
  m.span = n.span;
  m.count += n.count;
  m.incl_ns += n.incl_ns;
  m.child_ns += n.child_ns;
  std::map<int, MergedNode> kids;
  for (auto& existing : m.children) {
    kids.emplace(static_cast<int>(existing.span), std::move(existing));
  }
  for (std::int32_t c = n.first_child; c >= 0; c = sk.node(c).next_sibling) {
    merge_node(kids, sk, c);
  }
  m.children.clear();
  m.children.reserve(kids.size());
  for (auto& [id, child] : kids) m.children.push_back(std::move(child));
}

// The helpers below read or write the registry; the caller holds reg.mu.

std::array<SpanHistogram, kSpanCount> span_totals(const Registry& reg) {
  std::array<SpanHistogram, kSpanCount> out{};
  for (const auto& sk : reg.sinks) {
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const auto& a = sk->spans[i];
      if (a.count == 0) continue;
      auto& h = out[i];
      h.min_ns = h.count == 0 ? a.min_ns : std::min(h.min_ns, a.min_ns);
      h.max_ns = std::max(h.max_ns, a.max_ns);
      h.count += a.count;
      h.total_ns += a.total_ns;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[b] += a.hist[b];
      }
    }
  }
  return out;
}

std::array<std::uint64_t, kCounterCount> counter_totals(const Registry& reg) {
  std::array<std::uint64_t, kCounterCount> out{};
  for (const auto& sk : reg.sinks) {
    for (std::size_t i = 0; i < kCounterCount; ++i) out[i] += sk->counters[i];
  }
  return out;
}

void push_point(MetricStore& m, std::string_view name, std::string_view scope,
                double value, std::string_view unit = {}) {
  auto it = m.series.find(std::pair{name, scope});
  if (it == m.series.end()) {
    if (m.series.size() >= metrics::kMaxSeries) {
      ++m.dropped_series;
      return;
    }
    it = m.series.emplace(std::pair{std::string(name), std::string(scope)},
                          Series{}).first;
    it->second.unit = std::string(unit);
  }
  Series& s = it->second;
  if (s.filled == s.ring.size()) ++m.dropped_points;  // overwrites the oldest
  s.ring[s.next] = {m.window, value};
  s.next = (s.next + 1) % s.ring.size();
  s.filled = std::min(s.filled + 1, s.ring.size());
}

/// Every span's five window series (count, mean, p50, p90, p99), named once.
const std::array<std::string, 5>& span_window_names(Span span) {
  static const auto table = [] {
    std::array<std::array<std::string, 5>, kSpanCount> t;
    for (std::size_t sp = 0; sp < kSpanCount; ++sp) {
      const std::string base = span_name(static_cast<Span>(sp));
      t[sp] = {base + ".count", base + ".mean_ns", base + ".p50_ns",
               base + ".p90_ns", base + ".p99_ns"};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(span)];
}

/// One span's window: count/mean/p50/p90/p99 of the histogram delta since
/// the previous close, so each window's percentiles cover only its spans.
void push_span_window(MetricStore& m, Span span, const SpanHistogram& cur,
                      const SpanHistogram& prev) {
  const std::uint64_t count = cur.count - prev.count;
  if (count == 0) return;
  std::array<std::uint64_t, kHistogramBuckets> delta{};
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = cur.buckets[b] - prev.buckets[b];
  }
  const double mean_ns = static_cast<double>(cur.total_ns - prev.total_ns) /
                         static_cast<double>(count);
  const auto& name = span_window_names(span);
  push_point(m, name[0], {}, static_cast<double>(count));
  push_point(m, name[1], {}, mean_ns, "ns");
  constexpr std::array<double, 3> kQuantiles = {0.50, 0.90, 0.99};
  for (std::size_t k = 0; k < kQuantiles.size(); ++k) {
    push_point(m, name[2 + k], {},
               histogram_quantile(delta.data(), count, kQuantiles[k], mean_ns),
               "ns");
  }
}

/// The taps and frame rows in a scheduling-independent order: workers
/// append records in whatever order they interleave, but each (point,
/// innermost parallel_for item) runs on one thread, so renumbering seq in
/// (point, item, capture order) across taps and frames and sorting by it
/// makes the export independent of the worker counts — nested cell workers
/// included.
void order_records(std::vector<probe::TapRecord>& taps,
                   std::vector<FrameRow>& frames) {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t*>>
      order;
  for (auto& r : taps) order.emplace_back(r.point, r.item, r.seq, &r.seq);
  for (auto& r : frames) order.emplace_back(r.point, r.item, r.seq, &r.seq);
  std::sort(order.begin(), order.end());
  for (std::size_t k = 0; k < order.size(); ++k) *std::get<3>(order[k]) = k;
  const auto by_seq = [](const auto& a, const auto& b) {
    return a.seq < b.seq;
  };
  std::sort(taps.begin(), taps.end(), by_seq);
  std::sort(frames.begin(), frames.end(), by_seq);
}

metrics::Store copy_metrics(const MetricStore& m) {
  metrics::Store out;
  out.windows = m.window;
  out.dropped_points = m.dropped_points;
  out.dropped_series = m.dropped_series;
  out.dropped_events = m.dropped_events;
  out.series.reserve(m.series.size());
  for (const auto& [key, s] : m.series) {
    metrics::SeriesSnapshot series;
    series.name = key.first;
    series.scope = key.second;
    series.unit = s.unit;
    series.points.reserve(s.filled);
    const std::size_t start = s.filled == s.ring.size() ? s.next : 0;  // oldest
    for (std::size_t k = 0; k < s.filled; ++k) {
      series.points.push_back(s.ring[(start + k) % s.ring.size()]);
    }
    out.series.push_back(std::move(series));
  }
  out.events = m.events;
  return out;
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
    case Counter::kTraceEventsDropped: return "trace.events_dropped";
    case Counter::kCount: break;
  }
  return "unknown";
}

bool enabled() { return telemetry_switch().on(); }
void set_enabled(bool on) { telemetry_switch().set_on(on); }

bool trace_enabled() { return trace_switch().on(); }
void set_trace_enabled(bool on) {
  trace_switch().set_on(on);
  if (on) set_enabled(true);
}

std::string trace_path() { return trace_switch().path(); }

std::string profile_path() { return profile_switch().path(); }
void set_profile_path(std::string path) {
  profile_switch().set_path(std::move(path));
}

void record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (enabled()) record_flat(sink(), s, start_ns, dur_ns);
}

void add_count(Counter c, std::uint64_t n) {
  if (!enabled()) return;
  sink().counters[static_cast<std::size_t>(c)] += n;
}

void record_frames(std::span<const FrameRow> rows) {
  if (!enabled() && !probe::enabled()) return;
  const std::uint64_t ts_ns = util::monotonic_ns();
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& log = reg.frames;
  for (const FrameRow& row : rows) {
    const std::uint64_t seq = reg.next_seq++;
    const auto slot = admit(log.keys, kMaxFrameRows,
                            {t_point, t_item, seq, log.rows.size()},
                            log.dropped);
    if (!slot) continue;
    if (*slot == log.rows.size()) log.rows.emplace_back();
    FrameRow& kept = log.rows[*slot];
    kept = row;
    kept.seq = seq;
    kept.point = t_point;
    kept.item = t_item;
    kept.ts_ns = ts_ns;
  }
}

void enter_span(Span s) { push(sink(), s, /*context=*/false); }

void exit_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns) {
  auto& sk = sink();
  record_flat(sk, s, start_ns, dur_ns);
  pop(sk, dur_ns, /*context=*/false);
}

WorkerContext WorkerContext::capture(bool with_path) {
  WorkerContext ctx{{}, t_point, t_item};
  if (with_path && enabled() && t_sink != nullptr) {
    for (std::int32_t i = t_sink->current; i >= 0; i = t_sink->node(i).parent) {
      ctx.path.insert(ctx.path.begin(), t_sink->node(i).span);
    }
  }
  return ctx;
}

ScopedContext::ScopedContext(const WorkerContext& ctx, std::uint64_t item)
    : depth_(ctx.path.size()),
      point_(std::exchange(t_point, ctx.point)),
      item_(std::exchange(t_item, item)) {
  for (const Span s : ctx.path) push(sink(), s, /*context=*/true);
}

ScopedContext::~ScopedContext() {
  for (std::size_t d = 0; d < depth_; ++d) pop(*t_sink, 0, /*context=*/true);
  t_point = point_;
  t_item = item_;
}

Snapshot snapshot() {
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  Snapshot out;
  const auto spans = span_totals(reg);
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const auto& h = spans[i];
    if (h.count == 0) continue;
    SpanSnapshot s;
    s.id = static_cast<Span>(i);
    s.name = span_name(s.id);
    s.count = h.count;
    s.total_ns = h.total_ns;
    s.min_ns = h.min_ns;
    s.max_ns = h.max_ns;
    s.mean_ns = static_cast<double>(h.total_ns) / static_cast<double>(h.count);
    const auto fallback = static_cast<double>(h.max_ns);
    s.p50_ns = histogram_quantile(h.buckets.data(), h.count, 0.50, fallback);
    s.p90_ns = histogram_quantile(h.buckets.data(), h.count, 0.90, fallback);
    s.p99_ns = histogram_quantile(h.buckets.data(), h.count, 0.99, fallback);
    out.spans.push_back(std::move(s));
  }

  const auto counters = counter_totals(reg);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counters[i] == 0) continue;
    out.counters.push_back(
        {static_cast<Counter>(i), counter_name(static_cast<Counter>(i)),
         counters[i]});
  }

  std::map<int, MergedNode> roots;
  for (const auto& sk : reg.sinks) {
    out.events.insert(out.events.end(), sk->events.begin(), sk->events.end());
    if (sk->has_flat_data()) ++out.threads;
    if (sk->roots.empty() && sk->dropped == 0) continue;
    ++out.tree.threads;
    out.tree.dropped += sk->dropped;
    for (const std::int32_t r : sk->roots) merge_node(roots, *sk, r);
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  out.tree.roots.reserve(roots.size());
  for (auto& [id, node] : roots) out.tree.roots.push_back(std::move(node));

  out.parallel.reserve(reg.sites.size());
  for (const auto& [site, stats] : reg.sites) out.parallel.push_back(stats);
  out.probe = reg.probe.capture;
  out.frames = reg.frames.rows;
  out.dropped_frames = reg.frames.dropped;
  order_records(out.probe.taps, out.frames);
  out.metrics = copy_metrics(reg.metrics);
  return out;
}

void record_parallel(const char* site, const util::ParallelStats& stats) {
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& acc = reg.sites[site];
  acc.site = site;
  ++acc.calls;
  acc.items += stats.items;
  acc.wall_ns += stats.wall_ns;
  const std::size_t slots = stats.worker_busy_ns.size();
  if (acc.worker_busy_ns.size() < slots) {
    acc.worker_busy_ns.resize(slots, 0);
    acc.worker_items.resize(slots, 0);
  }
  std::uint64_t busy_ns = 0;
  std::uint64_t max_busy_ns = 0;
  for (std::size_t w = 0; w < slots; ++w) {
    busy_ns += stats.worker_busy_ns[w];
    max_busy_ns = std::max(max_busy_ns, stats.worker_busy_ns[w]);
    acc.worker_busy_ns[w] += stats.worker_busy_ns[w];
    acc.worker_items[w] += stats.worker_items[w];
  }
  acc.busy_ns += busy_ns;
  if (busy_ns > 0) {  // max ÷ mean busy time; 1.0 is perfectly balanced
    acc.worst_imbalance = std::max(
        acc.worst_imbalance, static_cast<double>(max_busy_ns * slots) /
                                 static_cast<double>(busy_ns));
  }
}

void reset() {
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& sk : reg.sinks) sk->clear();
  reg.sites.clear();
  reg.next_seq = 0;
  reg.frames = FrameLog{};
  reg.probe = ProbeStore{};
  reg.metrics = MetricStore{};
}

std::size_t sink_count() {
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  return reg.sinks.size();
}

}  // namespace cbma::telemetry

// ---------------------------------------------------------------------------
// The probe capture and the metric store: their recording entry points
// (declared in util/probe.h and util/metrics.h) write into the registry
// above under its one lock.
// ---------------------------------------------------------------------------

namespace cbma::probe {
namespace {

using telemetry::t_item;
using telemetry::t_point;

/// Store one tap record, labelled with the calling thread's point and
/// item, if its tap keeps it (admit); `data` is copied only then.
void store_tap(Tap t, std::uint32_t context, bool complex_iq,
               std::span<const double> data) {
  auto& reg = telemetry::Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& p = reg.probe;
  auto& taps = p.capture.taps;
  const std::uint64_t seq = reg.next_seq++;
  const auto slot = telemetry::admit(
      p.tap_keys[static_cast<std::size_t>(t)], kMaxRecordsPerTap,
      {t_point, t_item, seq, taps.size()}, p.capture.dropped_taps);
  if (!slot) return;
  if (*slot == taps.size()) taps.emplace_back();
  taps[*slot] = {t, seq, t_point, t_item, context, complex_iq,
                 {data.begin(), data.end()}};
}

}  // namespace

void record_tap(Tap t, std::uint32_t context, std::span<const double> samples) {
  if (!enabled()) return;
  store_tap(t, context, false,
            samples.first(std::min(samples.size(), kMaxSamplesPerRecord)));
}

void record_tap_iq(Tap t, std::uint32_t context,
                   std::span<const std::complex<double>> iq) {
  if (!enabled()) return;
  // The standard lays std::complex<double> out as double[2] (re, im) and
  // allows this access ([complex.numbers]).
  const auto* re_im = reinterpret_cast<const double*>(iq.data());
  const std::size_t n = std::min(iq.size(), kMaxSamplesPerRecord);
  store_tap(t, context, true, {re_im, 2 * n});
}

ScopedPoint::ScopedPoint(std::uint64_t point)
    : active_(enabled() || telemetry::enabled()) {
  if (active_) previous_ = std::exchange(t_point, point);
}

ScopedPoint::~ScopedPoint() {
  if (active_) t_point = previous_;
}

}  // namespace cbma::probe

namespace cbma::metrics {

bool enabled() { return telemetry::metrics_switch().on(); }
void set_enabled(bool on) {
  telemetry::metrics_switch().set_on(on);
  // Turning metrics off leaves telemetry on.
  if (on) telemetry::set_enabled(true);
}

std::string export_path() { return telemetry::metrics_switch().path(); }
void set_export_path(std::string path) {
  telemetry::metrics_switch().set_path(std::move(path));
}

void push(std::string_view name, std::string_view scope, double value,
          std::string_view unit) {
  if (!enabled()) return;
  auto& reg = telemetry::Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  telemetry::push_point(reg.metrics, name, scope, value, unit);
}

void push_event(Severity severity, std::string_view type,
                std::string_view scope, double value, std::string_view detail) {
  if (!enabled()) return;
  auto& reg = telemetry::Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& m = reg.metrics;
  if (m.events.size() >= kMaxEvents) {
    ++m.dropped_events;
    return;
  }
  Event e;
  e.seq = m.event_seq++;
  e.window = m.window;
  e.severity = severity;
  e.type = std::string(type);
  e.scope = std::string(scope);
  e.value = value;
  e.detail = std::string(detail);
  m.events.push_back(std::move(e));
}

std::uint64_t advance_window() {
  if (!enabled()) return 0;
  const std::string path = export_path();
  auto& reg = telemetry::Registry::instance();
  std::unique_lock<std::mutex> lock(reg.mu);
  auto& m = reg.metrics;

  // Counters: per-window deltas of the merged totals. A counter appears
  // once it has ever fired, so quiet windows still chart as 0.
  const auto counters = telemetry::counter_totals(reg);
  for (std::size_t c = 0; c < counters.size(); ++c) {
    if (counters[c] == 0) continue;
    telemetry::push_point(
        m, telemetry::counter_name(static_cast<telemetry::Counter>(c)), {},
        static_cast<double>(counters[c] - m.prev_counters[c]));
  }
  m.prev_counters = counters;

  const auto spans = telemetry::span_totals(reg);
  for (std::size_t sp = 0; sp < spans.size(); ++sp) {
    telemetry::push_span_window(m, static_cast<telemetry::Span>(sp),
                                spans[sp], m.prev_spans[sp]);
  }
  m.prev_spans = spans;
  const std::uint64_t window = ++m.window;
  if (path.empty()) return window;
  // The Prometheus file is rewritten from a copy, outside the lock.
  const Store exported = telemetry::copy_metrics(m);
  lock.unlock();
  write_prometheus(path, exported);
  return window;
}

}  // namespace cbma::metrics
