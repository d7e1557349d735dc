// The observability plane table (DESIGN.md §7): the four planes that watch
// the pipeline — telemetry, probe, metrics and profile — as one fixed list.
// RunRecorder::json() emits every enabled plane's BENCH_*.json section(s)
// and finish() writes every plane's requested export file by walking this
// table, so a plane is wired into the document and the artifacts by one row
// rather than by hand-written hooks. Each plane's switch lives in its util
// layer (util/env_switch.h); the table only reads it.
#pragma once

#include <array>

namespace cbma::util {
class JsonWriter;
}  // namespace cbma::util

namespace cbma::core {

struct ObservabilityPlane {
  const char* name;  ///< "telemetry", "probe", "metrics", "profile"
  bool (*enabled)();
  /// Append the plane's section(s) to an open JSON object scope.
  void (*write_json_section)(util::JsonWriter& w);
  /// Write the plane's export file if one is requested; true when nothing
  /// was requested or the write succeeded.
  bool (*write_artifact_if_requested)();
  /// Drop everything the plane recorded; switches stay as they are. The
  /// telemetry and profile rows share one span recorder, so either one
  /// clears both of its views.
  void (*reset)();
};

/// The planes in BENCH_*.json section order: telemetry ("telemetry"),
/// probe ("link_quality"), metrics ("timeseries" + "events"), profile
/// ("profile").
const std::array<ObservabilityPlane, 4>& observability_planes();

/// Every plane's write_artifact_if_requested in table order — the Chrome
/// trace, the probe dump + manifest, the Prometheus snapshot and the
/// collapsed stacks. Stops at, and returns false on, the first failure.
bool write_observability_artifacts();

}  // namespace cbma::core
