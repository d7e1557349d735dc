// The observability plane table (DESIGN.md §7): the four planes that watch
// the pipeline — telemetry, probe, metrics and profile — as one fixed list.
// RunRecorder::json() emits every enabled plane's BENCH_*.json section(s)
// and finish() writes every plane's requested export file by walking this
// table, so a plane is wired into the document and the artifacts by one row
// rather than by hand-written hooks. Each row names its section writer and
// its export writer, which live in observability.cpp: the "telemetry"
// section and the Chrome trace, "link_quality" and the CBPROBE1 dump,
// "timeseries"/"events" and the Prometheus file, "profile" and the
// collapsed stacks. Each walk reads one telemetry::snapshot() and hands it
// to every row. Each plane's switch lives in its util layer
// (util/env_switch.h); the table only reads it. The telemetry and profile
// rows are the span recorder's two views and share its one switch. A row
// writes its export file when it is enabled and its path is set. There is
// no per-plane reset: telemetry::reset() clears the one store.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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
  /// Where the export file goes; empty means no file is owed.
  std::string (*artifact_path)();
  /// Write the export file; false (with a stderr diagnostic) on failure.
  bool (*write_artifact)(const std::string& path,
                         const telemetry::Snapshot& snap);
};

/// The planes in BENCH_*.json section order: telemetry ("telemetry"),
/// probe ("link_quality"), metrics ("timeseries" + "events"), profile
/// ("profile").
const std::array<ObservabilityPlane, 4>& observability_planes();

/// Write every export file whose plane is enabled and whose path is set — the
/// Chrome trace, the probe dump + manifest, the Prometheus snapshot and the
/// collapsed stacks — in table order, all from `snap`. Stops at, and
/// returns false on, the first failure.
bool write_observability_artifacts(
    const telemetry::Snapshot& snap = telemetry::snapshot());

/// Version of the probe dump + manifest layout. Bump on breaking changes
/// and describe the migration in DESIGN.md §8.
inline constexpr int kProbeDumpSchemaVersion = 1;

/// Write the snapshot's probe capture as the CBPROBE1 binary dump at `path`
/// and its manifest at `path`.json, each atomically, creating parent
/// directories (the probe row's export; layout in DESIGN.md §8). Returns
/// false with a stderr diagnostic on I/O failure.
bool write_probe_dump(const std::string& path, const telemetry::Snapshot& snap);

/// One flattened caller path ("net/round;net/cell_round;rx/process") with
/// its merged counts — the unit of the CLI table and the collapsed stacks.
struct ProfileRow {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t excl_ns = 0;
};

/// The top `n` rows of `tree` by exclusive time (descending; ties break on
/// the path string so the order is deterministic).
std::vector<ProfileRow> top_exclusive(const telemetry::TreeSnapshot& tree,
                                      std::size_t n);

/// The collapsed-stack flamegraph document of `tree` (the profile row's
/// export): one "frame;frame value" line per caller path with non-zero
/// exclusive time, sorted by path. Values are exclusive nanoseconds.
std::string collapsed(const telemetry::TreeSnapshot& tree);

}  // namespace cbma::core
