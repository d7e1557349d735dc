// The observability plane table (DESIGN.md §7): the four planes that watch
// the pipeline — telemetry, probe, metrics and profile — as one fixed list.
// RunRecorder::json() emits every enabled plane's BENCH_*.json section(s)
// and finish() writes every plane's requested export file by walking this
// table, so a plane is wired into the document and the artifacts by one row
// rather than by hand-written hooks. Each walk takes one
// telemetry::snapshot() and hands it to every row. Each plane's switch
// lives in its util layer (util/env_switch.h); the table only reads it.
// There is no per-plane reset: telemetry::reset() clears the one store.
#pragma once

#include <array>
#include <string>

#include "util/telemetry.h"

namespace cbma::util {
class JsonWriter;
}  // namespace cbma::util

namespace cbma::core {

struct ObservabilityPlane {
  const char* name;  ///< "telemetry", "probe", "metrics", "profile"
  bool (*enabled)();
  /// Append the plane's section(s) to an open JSON object scope.
  void (*write_json_section)(util::JsonWriter& w,
                             const telemetry::Snapshot& snap);
  /// The export file's switch. The telemetry row uses CBMA_TRACE's own,
  /// so the trace is written with telemetry off; the others use `enabled`.
  bool (*artifact_enabled)();
  std::string (*artifact_path)();
  /// Write the export file; false (with a stderr diagnostic) on failure.
  bool (*write_artifact)(const std::string& path,
                         const telemetry::Snapshot& snap);
};

/// The planes in BENCH_*.json section order: telemetry ("telemetry"),
/// probe ("link_quality"), metrics ("timeseries" + "events"), profile
/// ("profile").
const std::array<ObservabilityPlane, 4>& observability_planes();

/// Write every export file whose switch is on and whose path is set — the
/// Chrome trace, the probe dump + manifest, the Prometheus snapshot and the
/// collapsed stacks — in table order. Stops at, and returns false on, the
/// first failure.
bool write_observability_artifacts();

}  // namespace cbma::core
