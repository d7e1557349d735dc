// core::Telemetry — the experiment-facing façade over the lock-free
// telemetry machinery in util/telemetry.h. The util layer owns the hot
// path (spans, counters, flight recorder); this layer owns the exports:
// the "telemetry" section RunRecorder embeds in BENCH_*.json and the
// Chrome/Perfetto trace file a sweep run can drop for timeline inspection.
// It also speaks the upper layers' vocabulary (rx::DecodeOutcome labels in
// the flight-recorder export), which the util layer deliberately cannot.
//
// The switches live in util/telemetry.h (telemetry::enabled() and the
// CBMA_TRACE path); the plane table (core/observability.h) decides when
// these exports run. See DESIGN.md §7.
#pragma once

#include <string>

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
  static void write_json_section(util::JsonWriter& w);

  /// Write a Chrome trace_event file from the current capture; returns
  /// false with a stderr diagnostic on I/O failure. With trace capture off
  /// this still exports flight-recorder instants (spans need CBMA_TRACE).
  static bool write_trace(const std::string& path);

  /// Honor CBMA_TRACE: when it names a path, write the trace there, even
  /// with telemetry disabled. Returns true when nothing was requested or
  /// the write succeeded.
  static bool write_trace_if_requested();
};

}  // namespace cbma::core
