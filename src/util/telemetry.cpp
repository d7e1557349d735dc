#include "util/telemetry.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>

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

/// Per-event capture cap per thread: a runaway trace degrades to "first
/// 64k events per thread" instead of exhausting memory.
constexpr std::size_t kMaxTraceEventsPerThread = 1u << 16;

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

/// Everything one thread records: the flat view (span histograms,
/// counters, flight-recorder ring, trace events) and the tree view (node
/// pool, roots, the live path).
struct ThreadSink {
  SpanAccum spans[kSpanCount];
  std::uint64_t counters[kCounterCount] = {};
  std::array<FrameTrace, kFlightRecorderCapacity> ring{};
  std::size_t ring_next = 0;
  std::size_t ring_filled = 0;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;

  std::vector<Node> pool;           ///< reserved to kNodeCapacity once
  std::vector<std::int32_t> roots;  ///< top-level nodes on this thread
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
    return ring_filled > 0 || !events.empty();
  }

  void clear() {
    for (auto& s : spans) s = SpanAccum{};
    for (auto& c : counters) c = 0;
    ring_next = 0;
    ring_filled = 0;
    events.clear();
    pool.clear();
    roots.clear();
    current = -1;
    skip_depth = 0;
    dropped = 0;
  }
};

/// Owns every sink for the life of the process — a worker thread exiting
/// leaves its recorded data aggregatable, and the thread_local below is a
/// plain pointer with no destructor ordering hazards — plus the
/// parallel_for site table, under the same lock.
struct Registry {
  static Registry& instance() {
    static Registry r;
    return r;
  }

  ThreadSink* acquire() {
    const std::lock_guard<std::mutex> lock(mu);
    auto sink = std::make_unique<ThreadSink>();
    sink->tid = static_cast<std::uint32_t>(sinks.size());
    sinks.push_back(std::move(sink));
    return sinks.back().get();
  }

  template <typename F>
  void for_each(F&& f) {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto& s : sinks) f(*s);
  }

  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSink>> sinks;
  std::map<std::string, ParallelSiteStats> sites;
  std::atomic<std::uint64_t> frame_seq{0};
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
  if (trace_enabled() && sk.events.size() < kMaxTraceEventsPerThread) {
    sk.events.push_back({s, start_ns, dur_ns, sk.tid});
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

bool profile_enabled() { return profile_switch().on(); }
void set_profile_enabled(bool on) { profile_switch().set_on(on); }

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

void record_frame(FrameTrace frame) {
  if (!enabled()) return;
  auto& sk = sink();
  frame.seq = Registry::instance().frame_seq.fetch_add(
      1, std::memory_order_relaxed);
  frame.ts_ns = util::monotonic_ns();
  sk.ring[sk.ring_next] = frame;
  sk.ring_next = (sk.ring_next + 1) % sk.ring.size();
  sk.ring_filled = std::min(sk.ring_filled + 1, sk.ring.size());
}

void enter_span(Span s) { push(sink(), s, /*context=*/false); }

void exit_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns,
               std::uint8_t views) {
  auto& sk = sink();
  if ((views & kSpanFlat) != 0) record_flat(sk, s, start_ns, dur_ns);
  if ((views & kSpanTree) != 0) pop(sk, dur_ns, /*context=*/false);
}

std::vector<Span> current_path() {
  std::vector<Span> path;
  if (t_sink == nullptr) return path;
  for (std::int32_t i = t_sink->current; i >= 0; i = t_sink->node(i).parent) {
    path.push_back(t_sink->node(i).span);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void enter_context(const std::vector<Span>& path) {
  auto& sk = sink();
  for (const Span s : path) push(sk, s, /*context=*/true);
}

void exit_context(std::size_t depth) {
  if (t_sink == nullptr) return;
  for (std::size_t d = 0; d < depth; ++d) pop(*t_sink, 0, /*context=*/true);
}

std::array<SpanHistogram, kSpanCount> span_histograms() {
  std::array<SpanHistogram, kSpanCount> out{};
  Registry::instance().for_each([&](ThreadSink& sk) {
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const auto& a = sk.spans[i];
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

Snapshot snapshot() {
  Snapshot out;
  const auto spans = span_histograms();
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

  const auto counters = counter_totals();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counters[i] == 0) continue;
    out.counters.push_back(
        {static_cast<Counter>(i), counter_name(static_cast<Counter>(i)),
         counters[i]});
  }

  Registry::instance().for_each([&](ThreadSink& sk) {
    for (std::size_t k = 0; k < sk.ring_filled; ++k) {
      out.frames.push_back(sk.ring[k]);
    }
    out.events.insert(out.events.end(), sk.events.begin(), sk.events.end());
    if (sk.has_flat_data()) ++out.threads;
  });
  std::sort(out.frames.begin(), out.frames.end(),
            [](const FrameTrace& a, const FrameTrace& b) { return a.seq < b.seq; });
  if (out.frames.size() > kFlightRecorderCapacity) {
    out.frames.erase(out.frames.begin(),
                     out.frames.end() -
                         static_cast<std::ptrdiff_t>(kFlightRecorderCapacity));
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

TreeSnapshot merged_tree() {
  TreeSnapshot out;
  std::map<int, MergedNode> roots;
  Registry::instance().for_each([&](ThreadSink& sk) {
    if (sk.roots.empty() && sk.dropped == 0) return;
    ++out.threads;
    out.dropped += sk.dropped;
    for (const std::int32_t r : sk.roots) merge_node(roots, sk, r);
  });
  out.roots.reserve(roots.size());
  for (auto& [id, node] : roots) out.roots.push_back(std::move(node));
  return out;
}

void record_parallel(const char* site, const util::ParallelStats& stats) {
  if (!profile_enabled() || !stats.collected) return;
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& acc = reg.sites[site];
  acc.site = site;
  ++acc.calls;
  acc.items += stats.items;
  acc.wall_ns += stats.wall_ns;
  if (acc.worker_busy_ns.size() < stats.worker_busy_ns.size()) {
    acc.worker_busy_ns.resize(stats.worker_busy_ns.size(), 0);
    acc.worker_items.resize(stats.worker_items.size(), 0);
  }
  for (std::size_t w = 0; w < stats.worker_busy_ns.size(); ++w) {
    acc.busy_ns += stats.worker_busy_ns[w];
    acc.worker_busy_ns[w] += stats.worker_busy_ns[w];
    acc.worker_items[w] += stats.worker_items[w];
  }
  acc.worst_imbalance = std::max(acc.worst_imbalance, stats.imbalance());
}

std::vector<ParallelSiteStats> parallel_stats() {
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<ParallelSiteStats> out;
  out.reserve(reg.sites.size());
  for (const auto& [site, stats] : reg.sites) out.push_back(stats);
  return out;
}

void reset() {
  auto& reg = Registry::instance();
  reg.for_each([](ThreadSink& sk) { sk.clear(); });
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites.clear();
  reg.frame_seq.store(0, std::memory_order_relaxed);
}

std::size_t sink_count() {
  auto& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  return reg.sinks.size();
}

}  // namespace cbma::telemetry
