#include "core/observability.h"

#include "core/metrics_plane.h"
#include "core/probe_session.h"
#include "core/profile_plane.h"
#include "core/telemetry.h"
#include "util/atomic_file.h"
#include "util/trace_export.h"

namespace cbma::core {

const std::array<ObservabilityPlane, 4>& observability_planes() {
  static const std::array<ObservabilityPlane, 4> planes{{
      {"telemetry", telemetry::enabled, Telemetry::write_json_section,
       telemetry::trace_enabled, telemetry::trace_path,
       [](const std::string& path, const telemetry::Snapshot& snap) {
         return util::write_chrome_trace(path, snap.events, snap.frames);
       }},
      {"probe", probe::enabled, ProbeSession::write_json_section,
       probe::enabled, probe::dump_path, ProbeSession::write_dump},
      {"metrics", metrics::enabled, MetricsPlane::write_json_section,
       metrics::enabled, metrics::export_path,
       [](const std::string& path, const telemetry::Snapshot& snap) {
         return metrics::write_prometheus(path, snap.metrics);
       }},
      {"profile", telemetry::profile_enabled, ProfilePlane::write_json_section,
       telemetry::profile_enabled, telemetry::profile_path,
       [](const std::string& path, const telemetry::Snapshot& snap) {
         return util::write_file_atomically(
             path, ProfilePlane::collapsed(snap.tree), "profile");
       }},
  }};
  return planes;
}

bool write_observability_artifacts() {
  const telemetry::Snapshot snap = telemetry::snapshot();
  for (const auto& plane : observability_planes()) {
    if (!plane.artifact_enabled()) continue;
    const std::string path = plane.artifact_path();
    if (!path.empty() && !plane.write_artifact(path, snap)) return false;
  }
  return true;
}

}  // namespace cbma::core
