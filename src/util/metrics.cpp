#include "util/metrics.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "util/atomic_file.h"
#include "util/env_switch.h"

namespace cbma::metrics {
namespace {

struct Series {
  std::string unit;
  std::array<SeriesPoint, kWindowCapacity> ring{};
  std::size_t next = 0;
  std::size_t filled = 0;
};

/// One mutex-guarded store for the process (window-cadence writes, not a
/// hot path). Keyed by (name, scope) so the same metric fans out across
/// cells without colliding with its global rollup.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  std::mutex mu;
  std::map<std::pair<std::string, std::string>, Series> series;
  std::vector<Event> events;
  std::uint64_t window = 0;   ///< current (open) window index
  std::uint64_t closed = 0;   ///< windows closed so far
  std::uint64_t event_seq = 0;
  std::uint64_t dropped_points = 0;
  std::uint64_t dropped_series = 0;
  std::uint64_t dropped_events = 0;
};

util::EnvSwitch& metrics_switch() {
  static util::EnvSwitch s("CBMA_METRICS");
  return s;
}

/// Prometheus metric charset: [a-zA-Z0-9_]; everything else (dots, slashes)
/// becomes '_'. A leading digit gets an extra '_' (the "cbma_" prefix
/// already prevents that, but sanitize defensively).
std::string sanitize_metric_name(const std::string& name) {
  std::string out = "cbma_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// "cell=3" → {cell="3"}; "" → no labels; a scope without '=' becomes a
/// generic {scope="..."} label so malformed scopes stay parseable.
std::string scope_labels(const std::string& scope) {
  if (scope.empty()) return {};
  const auto eq = scope.find('=');
  std::string key = eq == std::string::npos ? "scope" : scope.substr(0, eq);
  std::string value = eq == std::string::npos ? scope : scope.substr(eq + 1);
  for (auto& c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  std::string escaped;
  for (const char c : value) {
    if (c == '\\' || c == '"') escaped.push_back('\\');
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped.push_back(c);
  }
  return "{" + key + "=\"" + escaped + "\"}";
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kCount: break;
  }
  return "unknown";
}

bool enabled() { return metrics_switch().on(); }
void set_enabled(bool on) { metrics_switch().set_on(on); }

std::string export_path() { return metrics_switch().path(); }
void set_export_path(std::string path) {
  metrics_switch().set_path(std::move(path));
}

void push(std::string_view name, std::string_view scope, double value,
          std::string_view unit) {
  if (!enabled()) return;
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto key = std::make_pair(std::string(name), std::string(scope));
  auto it = r.series.find(key);
  if (it == r.series.end()) {
    if (r.series.size() >= kMaxSeries) {
      ++r.dropped_series;
      return;
    }
    it = r.series.emplace(std::move(key), Series{}).first;
    it->second.unit = std::string(unit);
  }
  Series& s = it->second;
  if (s.filled == kWindowCapacity) ++r.dropped_points;  // overwrites the oldest
  s.ring[s.next] = {r.window, value};
  s.next = (s.next + 1) % kWindowCapacity;
  s.filled = std::min(s.filled + 1, kWindowCapacity);
}

void push_event(Severity severity, std::string_view type,
                std::string_view scope, double value, std::string_view detail) {
  if (!enabled()) return;
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (r.events.size() >= kMaxEvents) {
    ++r.dropped_events;
    return;
  }
  Event e;
  e.seq = r.event_seq++;
  e.window = r.window;
  e.severity = severity;
  e.type = std::string(type);
  e.scope = std::string(scope);
  e.value = value;
  e.detail = std::string(detail);
  r.events.push_back(std::move(e));
}

std::uint64_t advance_window() {
  if (!enabled()) return 0;
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  ++r.closed;
  return ++r.window;
}

std::uint64_t current_window() {
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.window;
}

Snapshot snapshot() {
  Snapshot out;
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  out.windows = r.closed;
  out.dropped_points = r.dropped_points;
  out.dropped_series = r.dropped_series;
  out.dropped_events = r.dropped_events;
  out.series.reserve(r.series.size());
  for (const auto& [key, s] : r.series) {
    SeriesSnapshot snap;
    snap.name = key.first;
    snap.scope = key.second;
    snap.unit = s.unit;
    snap.points.reserve(s.filled);
    const std::size_t start =
        s.filled == kWindowCapacity ? s.next : 0;  // oldest slot
    for (std::size_t k = 0; k < s.filled; ++k) {
      snap.points.push_back(s.ring[(start + k) % kWindowCapacity]);
    }
    out.series.push_back(std::move(snap));
  }
  out.events = r.events;
  return out;
}

void reset() {
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.series.clear();
  r.events.clear();
  r.window = 0;
  r.closed = 0;
  r.event_seq = 0;
  r.dropped_points = 0;
  r.dropped_series = 0;
  r.dropped_events = 0;
}

std::size_t series_count() {
  auto& r = Registry::instance();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.series.size();
}

std::string prometheus_text(const Snapshot& snap) {
  std::string out;
  out += "# CBMA metrics-plane exposition (DESIGN.md \xC2\xA7"
         "12); rewritten atomically per window.\n";
  out += "# TYPE cbma_metrics_windows_total counter\n";
  out += "cbma_metrics_windows_total ";
  append_number(out, static_cast<double>(snap.windows));
  out += "\n# TYPE cbma_metrics_series gauge\ncbma_metrics_series ";
  append_number(out, static_cast<double>(snap.series.size()));
  out += "\n# TYPE cbma_metrics_events_total counter\n"
         "cbma_metrics_events_total ";
  append_number(out, static_cast<double>(snap.events.size()));
  out += "\n# TYPE cbma_metrics_dropped_total counter\n"
         "cbma_metrics_dropped_total ";
  append_number(out, static_cast<double>(snap.dropped_points +
                                         snap.dropped_series +
                                         snap.dropped_events));
  out += "\n";

  // Snapshot semantics: each series exposes its latest value as a gauge.
  // The snapshot is (name, scope)-sorted, so every metric's scoped rows
  // are contiguous and the TYPE line is emitted once per metric name.
  std::string prev_name;
  for (const auto& s : snap.series) {
    if (s.points.empty()) continue;
    const std::string metric = sanitize_metric_name(s.name);
    if (s.name != prev_name) {
      if (!s.unit.empty()) out += "# HELP " + metric + " unit: " + s.unit + "\n";
      out += "# TYPE " + metric + " gauge\n";
      prev_name = s.name;
    }
    out += metric + scope_labels(s.scope) + " ";
    append_number(out, s.points.back().value);
    out += "\n";
  }

  std::uint64_t by_severity[static_cast<std::size_t>(Severity::kCount)] = {};
  for (const auto& e : snap.events) {
    if (e.severity < Severity::kCount) {
      ++by_severity[static_cast<std::size_t>(e.severity)];
    }
  }
  out += "# TYPE cbma_events gauge\n";
  for (std::size_t s = 0; s < static_cast<std::size_t>(Severity::kCount); ++s) {
    out += std::string("cbma_events{severity=\"") +
           severity_name(static_cast<Severity>(s)) + "\"} ";
    append_number(out, static_cast<double>(by_severity[s]));
    out += "\n";
  }
  return out;
}

bool write_prometheus(const std::string& path) {
  return util::write_file_atomically(path, prometheus_text(snapshot()),
                                     "metrics");
}

}  // namespace cbma::metrics
