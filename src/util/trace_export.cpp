#include "util/trace_export.h"

#include <algorithm>

#include "util/atomic_file.h"
#include "util/json.h"

namespace cbma::util {

namespace {

/// Microseconds with sub-µs precision — the unit trace_event mandates.
double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

std::string chrome_trace_json(std::span<const telemetry::TraceEvent> events,
                              std::span<const telemetry::FrameTrace> frames) {
  // Rebase to the earliest timestamp so the viewer opens at t = 0 instead
  // of hours into the steady clock's epoch.
  std::uint64_t t0 = ~0ull;
  for (const auto& e : events) t0 = std::min(t0, e.ts_ns);
  for (const auto& f : frames) t0 = std::min(t0, f.ts_ns);
  if (t0 == ~0ull) t0 = 0;

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& e : events) {
    w.begin_object();
    w.key("name").value(telemetry::span_name(e.span));
    w.key("ph").value("X");
    w.key("ts").value(to_us(e.ts_ns - t0));
    w.key("dur").value(to_us(e.dur_ns));
    w.key("pid").value(1);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.end_object();
  }
  for (const auto& f : frames) {
    w.begin_object();
    w.key("name").value("frame");
    w.key("ph").value("i");
    w.key("ts").value(to_us(f.ts_ns - t0));
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("s").value("g");  // global-scope instant: visible on every track
    w.key("args").begin_object();
    w.key("seq").value(f.seq);
    w.key("tag").value(static_cast<std::uint64_t>(f.tag_id));
    w.key("code_length").value(static_cast<std::uint64_t>(f.pn_code_length));
    w.key("correlation").value(f.correlation);
    w.key("margin").value(f.margin);
    w.key("cfo_hz").value(f.cfo_hz);
    w.key("power_dbm").value(f.power_dbm);
    w.key("impedance_level")
        .value(static_cast<std::uint64_t>(f.impedance_level));
    w.key("outcome").value(static_cast<std::uint64_t>(f.outcome));
    w.key("impairment_gates")
        .value(static_cast<std::uint64_t>(f.impairment_gates));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ns");
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const std::string& path,
                        std::span<const telemetry::TraceEvent> events,
                        std::span<const telemetry::FrameTrace> frames) {
  return write_file_atomically(path, chrome_trace_json(events, frames) + "\n",
                               "trace");
}

}  // namespace cbma::util
