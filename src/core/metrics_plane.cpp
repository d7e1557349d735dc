#include "core/metrics_plane.h"

#include <cstdio>

#include "rx/receiver.h"
#include "util/json.h"
#include "util/telemetry.h"

namespace cbma::core {

namespace {

/// Sequential-context state: tick()/reset() are only legal while no
/// telemetry worker is recording, so plain fields suffice.
struct PlaneState {
  std::array<std::uint64_t, telemetry::kCounterCount> prev_counters{};
  std::array<telemetry::SpanHistogram, telemetry::kSpanCount> prev_spans{};
};

PlaneState& state() {
  static PlaneState s;
  return s;
}

void push_span_window(const char* span, const telemetry::SpanHistogram& cur,
                      const telemetry::SpanHistogram& prev) {
  const std::uint64_t count = cur.count - prev.count;
  if (count == 0) return;
  std::array<std::uint64_t, telemetry::kHistogramBuckets> delta{};
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = cur.buckets[b] - prev.buckets[b];
  }
  const double mean_ns =
      static_cast<double>(cur.total_ns - prev.total_ns) /
      static_cast<double>(count);
  const std::string base(span);
  metrics::push(base + ".count", {}, static_cast<double>(count));
  metrics::push(base + ".mean_ns", {}, mean_ns, "ns");
  for (const auto& [suffix, q] : {std::pair{".p50_ns", 0.50},
                                 std::pair{".p90_ns", 0.90},
                                 std::pair{".p99_ns", 0.99}}) {
    metrics::push(base + suffix, {},
                  telemetry::histogram_quantile(delta.data(), count, q,
                                                mean_ns),
                  "ns");
  }
}

}  // namespace

void MetricsPlane::enable(std::string prometheus_path) {
  metrics::set_enabled(true);
  if (!prometheus_path.empty()) {
    metrics::set_export_path(std::move(prometheus_path));
  }
  telemetry::set_enabled(true);
}

void MetricsPlane::reset() {
  metrics::reset();
  auto& s = state();
  s.prev_counters = {};
  s.prev_spans = {};
}

void MetricsPlane::tick() {
  if (!metrics::enabled()) return;
  auto& s = state();

  // Telemetry counters: per-window deltas of the merged totals. A counter
  // appears once it has ever fired, so quiet windows still chart as 0.
  const auto counters = telemetry::counter_totals();
  for (std::size_t c = 0; c < counters.size(); ++c) {
    if (counters[c] == 0) continue;
    metrics::push(telemetry::counter_name(
                      static_cast<telemetry::Counter>(c)),
                  {},
                  static_cast<double>(counters[c] - s.prev_counters[c]));
  }
  s.prev_counters = counters;

  // Span latencies: this window's count/mean/p50/p90/p99 from the
  // histogram delta since the previous boundary.
  const auto spans = telemetry::span_histograms();
  for (std::size_t sp = 0; sp < spans.size(); ++sp) {
    push_span_window(
        telemetry::span_name(static_cast<telemetry::Span>(sp)), spans[sp],
        s.prev_spans[sp]);
  }
  s.prev_spans = spans;

  metrics::advance_window();
  write_prometheus_if_requested();
}

void MetricsPlane::record_cell(const CellSample& sample) {
  if (!metrics::enabled()) return;
  const std::string scope = "cell=" + std::to_string(sample.cell_id);
  metrics::push("net.cell.goodput_bps", scope, sample.goodput_bps, "bps");
  metrics::push("net.cell.fer", scope, sample.frame_error_rate);
  metrics::push("net.cell.tags_served", scope,
                static_cast<double>(sample.tags_served));
  metrics::push("net.cell.tags_total", scope,
                static_cast<double>(sample.tags_total));
  metrics::push("net.cell.sent", scope, static_cast<double>(sample.sent));
  metrics::push("net.cell.acked", scope, static_cast<double>(sample.acked));
  for (std::size_t o = 0; o < sample.outcomes.size(); ++o) {
    if (sample.outcomes[o] == 0) continue;
    metrics::push(std::string("rx.outcome.") +
                      rx::to_string(static_cast<rx::DecodeOutcome>(o)),
                  scope, static_cast<double>(sample.outcomes[o]));
  }
  if (sample.quality.frames > 0) {
    metrics::push("link.snr_db", scope, sample.quality.snr_db_mean(), "dB");
    metrics::push("link.evm", scope, sample.quality.evm_mean());
    metrics::push("link.soft_margin", scope,
                  sample.quality.soft_margin_mean());
    metrics::push("link.margin_ratio", scope,
                  sample.quality.margin_ratio_mean());
  }
}

void MetricsPlane::write_json_section(util::JsonWriter& w) {
  const metrics::Snapshot snap = metrics::snapshot();

  w.key("timeseries").begin_object();
  w.key("windows").value(snap.windows);
  w.key("window_capacity")
      .value(static_cast<std::uint64_t>(metrics::kWindowCapacity));
  w.key("dropped").begin_object();
  w.key("points").value(snap.dropped_points);
  w.key("series").value(snap.dropped_series);
  w.key("events").value(snap.dropped_events);
  w.end_object();
  w.key("series").begin_array();
  for (const auto& series : snap.series) {
    w.begin_object();
    w.key("name").value(series.name);
    w.key("scope").value(series.scope);
    if (!series.unit.empty()) w.key("unit").value(series.unit);
    w.key("points").begin_array();
    for (const auto& p : series.points) {
      w.begin_array();
      w.value(p.window);
      w.value(p.value);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("events").begin_array();
  for (const auto& e : snap.events) {
    w.begin_object();
    w.key("seq").value(e.seq);
    w.key("window").value(e.window);
    w.key("severity").value(metrics::severity_name(e.severity));
    w.key("type").value(e.type);
    if (!e.scope.empty()) w.key("scope").value(e.scope);
    w.key("value").value(e.value);
    if (!e.detail.empty()) w.key("detail").value(e.detail);
    w.end_object();
  }
  w.end_array();
}

bool MetricsPlane::write_prometheus_if_requested() {
  if (!metrics::enabled()) return true;
  const std::string path = metrics::export_path();
  if (path.empty()) return true;
  return metrics::write_prometheus(path);
}

}  // namespace cbma::core
