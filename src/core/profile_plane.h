// ProfilePlane: the export half of the span recorder's tree view
// (DESIGN.md §13). util/telemetry records the caller-path tree in its
// per-thread sinks and merges it; this facade owns what leaves the
// process:
//
//  - write_json_section() emits the "profile" section of BENCH_*.json —
//    the attribution tree (count / inclusive / exclusive / same-thread
//    child time per caller path) plus the parallel_for worker-utilization
//    reports ("sweep/run", "net/round") with per-slot busy time, item
//    counts and the imbalance ratio.
//  - write_collapsed_if_requested() writes the Brendan Gregg
//    collapsed-stack flamegraph file ("a;b;c <exclusive_ns>" lines) to
//    the CBMA_PROFILE path.
//  - top_exclusive() flattens the tree into the top-N exclusive-time rows
//    cbma_cli --profile prints.
//
// Same identity contract as telemetry/probe/metrics: when disabled
// (telemetry::profile_enabled() false) every entry point returns before
// touching state, and BENCH_*.json stays byte-identical. Unlike the
// metrics plane, enabling profiling does NOT arm the flat telemetry view —
// each span feeds only the views that are on, so a profile-only run emits
// no "telemetry" section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cbma::util {
class JsonWriter;
}  // namespace cbma::util

namespace cbma::core {

class ProfilePlane {
 public:
  /// Turn profiling on; a non-empty path becomes the collapsed-stack
  /// export target (equivalent to CBMA_PROFILE=<path>).
  static void enable(std::string collapsed_path = "");

  /// One flattened caller path ("net/round;net/cell_round;rx/process")
  /// with its merged counts — the unit of the CLI table and the
  /// collapsed-stack export.
  struct Row {
    std::string path;
    std::uint64_t count = 0;
    std::uint64_t incl_ns = 0;
    std::uint64_t excl_ns = 0;
  };

  /// The top `n` rows by exclusive time (descending; ties break on the
  /// path string so the order is deterministic). Sequential-only.
  static std::vector<Row> top_exclusive(std::size_t n);

  /// Emit the "profile" section into an open JSON object
  /// (the plane table calls this only when enabled).
  static void write_json_section(util::JsonWriter& w);

  /// The collapsed-stack flamegraph document: one "frame;frame value"
  /// line per caller path with non-zero exclusive time, sorted by path.
  /// Values are exclusive nanoseconds.
  static std::string collapsed();

  /// Write collapsed() to telemetry::profile_path(), if one is configured.
  /// No-op (true) when disabled or no path is set.
  static bool write_collapsed_if_requested();
};

}  // namespace cbma::core
