#include "core/observability.h"

#include "core/metrics_plane.h"
#include "core/probe_session.h"
#include "core/profile_plane.h"
#include "core/telemetry.h"
#include "util/telemetry.h"

namespace cbma::core {

const std::array<ObservabilityPlane, 4>& observability_planes() {
  static const std::array<ObservabilityPlane, 4> planes{{
      {"telemetry", telemetry::enabled, Telemetry::write_json_section,
       Telemetry::write_trace_if_requested, telemetry::reset},
      {"probe", probe::enabled, ProbeSession::write_json_section,
       ProbeSession::write_dump_if_requested, probe::reset},
      {"metrics", metrics::enabled, MetricsPlane::write_json_section,
       MetricsPlane::write_prometheus_if_requested, MetricsPlane::reset},
      {"profile", telemetry::profile_enabled, ProfilePlane::write_json_section,
       ProfilePlane::write_collapsed_if_requested, telemetry::reset},
  }};
  return planes;
}

bool write_observability_artifacts() {
  for (const auto& plane : observability_planes()) {
    if (!plane.write_artifact_if_requested()) return false;
  }
  return true;
}

}  // namespace cbma::core
