// ProfilePlane: the export half of the span recorder's tree view
// (DESIGN.md §13). util/telemetry records the caller-path tree in its
// per-thread sinks and merges it into telemetry::snapshot().tree; this
// facade owns what leaves the process:
//
//  - write_json_section() emits the "profile" section of BENCH_*.json —
//    the attribution tree (count / inclusive / exclusive / same-thread
//    child time per caller path) plus the parallel_for worker-utilization
//    reports ("sweep/run", "net/round") with per-slot busy time, item
//    counts and the imbalance ratio.
//  - collapsed() renders the Brendan Gregg collapsed-stack flamegraph
//    document ("a;b;c <exclusive_ns>" lines) the plane table writes to the
//    CBMA_PROFILE path.
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

#include "util/telemetry.h"

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

  /// The top `n` rows of `tree` by exclusive time (descending; ties break
  /// on the path string so the order is deterministic).
  static std::vector<Row> top_exclusive(const telemetry::TreeSnapshot& tree,
                                        std::size_t n);

  /// Emit the "profile" section into an open JSON object
  /// (the plane table calls this only when enabled).
  static void write_json_section(util::JsonWriter& w,
                                 const telemetry::Snapshot& snap);

  /// The collapsed-stack flamegraph document of `tree`: one
  /// "frame;frame value" line per caller path with non-zero exclusive
  /// time, sorted by path. Values are exclusive nanoseconds.
  static std::string collapsed(const telemetry::TreeSnapshot& tree);
};

}  // namespace cbma::core
