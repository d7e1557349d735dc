// MetricsPlane: the windowing + export half of the metrics plane
// (DESIGN.md §12). util/metrics declares the bounded store and the
// recording entry points (metrics::push / push_event, strict no-ops while
// the plane is off), which write into telemetry's one registry; this
// facade owns *when* windows close and what leaves the process:
//
//  - tick() is called once per round from a sequential context (after any
//    parallel_for has joined) and closes one window with
//    metrics::advance_window(), which folds telemetry's counter and span
//    totals in as per-window series; then it rewrites the Prometheus
//    snapshot if CBMA_METRICS named a path, from the metric store alone.
//  - record_cell() attributes one cell's round result to scope "cell=<id>"
//    — goodput, FER, code-slice occupancy, per-outcome decode tallies and
//    the link-quality rollup.
//  - write_json_section() emits the "timeseries" + "events" sections.
//
// Same identity contract as telemetry/probe: when disabled (CBMA_METRICS
// unset and no enable() call) every entry point returns before touching
// state — no allocation, no clock read, no RNG draw, byte-identical bench
// output. Enabling metrics arms util/telemetry too (the counter/span
// series need it), from the first moment the switch is on; it never arms
// the probe.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "core/metrics.h"
#include "util/metrics.h"
#include "util/telemetry.h"

namespace cbma::util {
class JsonWriter;
}  // namespace cbma::util

namespace cbma::core {

class MetricsPlane {
 public:
  /// One cell's contribution to the current window. net::Network fills one
  /// per cell each round from its CellRoundResult (sequentially, step 5).
  struct CellSample {
    std::size_t cell_id = 0;
    double goodput_bps = 0.0;
    double frame_error_rate = 0.0;
    std::size_t tags_served = 0;
    std::size_t tags_total = 0;
    std::size_t sent = 0;
    std::size_t acked = 0;
    std::array<std::size_t, kDecodeOutcomeCount> outcomes{};
    rx::LinkQualityRollup quality;
  };

  /// Turn the plane on, and util/telemetry with it so the counter/span
  /// series have a source; a non-empty path becomes the Prometheus
  /// exposition target (equivalent to CBMA_METRICS=<path>, which arms
  /// telemetry from its first read). Turn the plane off with
  /// metrics::set_enabled(false); telemetry stays on.
  static void enable(std::string prometheus_path = "");

  /// Per-round heartbeat — MUST be called from a sequential context (no
  /// telemetry workers recording). Closes one window per call.
  static void tick();

  static void record_cell(const CellSample& sample);

  /// Emit the "timeseries" + "events" sections into an open JSON object
  /// (the plane table calls this only when enabled).
  static void write_json_section(util::JsonWriter& w,
                                 const telemetry::Snapshot& snap);
};

}  // namespace cbma::core
