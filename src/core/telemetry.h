// core::Telemetry — the experiment-facing façade over the lock-free
// telemetry machinery in util/telemetry.h. The util layer owns the hot
// path (spans, counters, flight recorder) and the Chrome/Perfetto trace
// export (util/trace_export.h); this layer owns the "telemetry" section
// RunRecorder embeds in BENCH_*.json, which speaks the upper layers'
// vocabulary (rx::DecodeOutcome labels in the flight-recorder export) that
// the util layer deliberately cannot.
//
// The switches live in util/telemetry.h (telemetry::enabled() and the
// CBMA_TRACE path); the plane table (core/observability.h) decides when
// the section and the trace are written. See DESIGN.md §7.
#pragma once

#include "util/json.h"
#include "util/telemetry.h"

namespace cbma::core {

class Telemetry {
 public:
  /// Append the "telemetry" key + object to an open JSON object scope:
  /// per-span ns statistics (count/total/min/max/mean/p50/p90/p99),
  /// non-zero counters, thread count, and the flight recorder with
  /// human-readable DecodeOutcome labels. The caller decides *whether* to
  /// emit (RunRecorder only does when telemetry is enabled, keeping the
  /// disabled document byte-identical).
  static void write_json_section(util::JsonWriter& w,
                                 const telemetry::Snapshot& snap);
};

}  // namespace cbma::core
