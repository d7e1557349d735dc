#include "core/metrics_plane.h"

#include "rx/receiver.h"
#include "util/json.h"

namespace cbma::core {

void MetricsPlane::enable(std::string prometheus_path) {
  metrics::set_enabled(true);
  if (!prometheus_path.empty()) {
    metrics::set_export_path(std::move(prometheus_path));
  }
  telemetry::set_enabled(true);
}

void MetricsPlane::tick() {
  if (!metrics::enabled()) return;
  metrics::advance_window();
  const std::string path = metrics::export_path();
  if (!path.empty()) metrics::write_prometheus(path, telemetry::metric_store());
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

void MetricsPlane::write_json_section(util::JsonWriter& w,
                                      const telemetry::Snapshot& snap) {
  const metrics::Store& store = snap.metrics;

  w.key("timeseries").begin_object();
  w.key("windows").value(store.windows);
  w.key("window_capacity")
      .value(static_cast<std::uint64_t>(metrics::kWindowCapacity));
  w.key("dropped").begin_object();
  w.key("points").value(store.dropped_points);
  w.key("series").value(store.dropped_series);
  w.key("events").value(store.dropped_events);
  w.end_object();
  w.key("series").begin_array();
  for (const auto& series : store.series) {
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
  for (const auto& e : store.events) {
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

}  // namespace cbma::core
