#include "util/metrics.h"

#include <cstdio>

#include "util/atomic_file.h"

// The switch, push, push_event and advance_window live with telemetry's one
// registry in util/telemetry.cpp: the store is in it, and turning metrics on
// arms telemetry there.

namespace cbma::metrics {
namespace {

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

std::string prometheus_text(const Store& snap) {
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

bool write_prometheus(const std::string& path, const Store& store) {
  return util::write_file_atomically(path, prometheus_text(store), "metrics");
}

}  // namespace cbma::metrics
