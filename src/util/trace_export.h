// Chrome trace_event JSON export of telemetry captures: span occurrences
// become "ph":"X" duration slices on their recording thread's track, and
// flight-recorder frames become "ph":"i" instant events carrying the
// per-frame causal fields as args. The output loads directly in
// chrome://tracing and in Perfetto's legacy-trace importer
// (ui.perfetto.dev → "Open trace file").
#pragma once

#include <span>
#include <string>

#include "util/telemetry.h"

namespace cbma::util {

/// Serialize span slices + frame instants into one trace_event document
/// ({"traceEvents": [...]}). Timestamps are microseconds on the shared
/// monotonic clock, rebased so the earliest event sits at t = 0.
std::string chrome_trace_json(std::span<const telemetry::TraceEvent> events,
                              std::span<const telemetry::FrameRow> frames);

/// Write chrome_trace_json to `path` atomically (util/atomic_file.h);
/// returns false (with a stderr diagnostic) when it cannot be written.
bool write_chrome_trace(const std::string& path,
                        std::span<const telemetry::TraceEvent> events,
                        std::span<const telemetry::FrameRow> frames);

}  // namespace cbma::util
