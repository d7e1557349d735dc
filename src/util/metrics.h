// Bounded time-series store + structured event log: the metrics plane
// (DESIGN.md §12). Its caller closes a window with advance_window(), which
// also rewrites the Prometheus file; the plane table (core/observability.h)
// writes the JSON sections. Numeric samples land in fixed-capacity
// per-series rings keyed by (name, scope) — scope "" is the global rollup,
// "cell=<id>" attributes a sample to one cell of the net:: layer — and
// typed events (severity, type, scope, value, detail) land in one bounded
// log with a drop counter. Memory is bounded by construction: at most
// kMaxSeries rings of kWindowCapacity points each plus kMaxEvents log
// entries; overflow increments a drop counter instead of growing.
//
// The contract mirrors telemetry/probe exactly: **disabled metrics are a
// strict identity**. When enabled() is false (the default), push(),
// push_event() and advance_window() return before touching anything, no
// storage is allocated, no clock is read, and no RNG is ever drawn (the
// store never draws randomness at all) — every bench table and
// BENCH_*.json stays byte-identical. Enable with CBMA_METRICS=<path>
// (the Prometheus exposition target) or set_enabled(true); either one arms
// telemetry too, since the counter and span series sample it.
//
// The store lives in telemetry's one registry (util/telemetry.cpp, which
// implements the switch, push, push_event and advance_window): like the
// probe capture, every write takes its mutex, since samples arrive at
// window cadence (per round / per sweep point), not per chip.
// telemetry::snapshot().metrics copies it and telemetry::reset() clears
// it, together with the window baselines advance_window() subtracts. See
// DESIGN.md §12 for the full metrics-plane contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cbma::metrics {

/// Capacity bounds (compile-time; overflow counts drops, never grows).
inline constexpr std::size_t kMaxSeries = 512;
inline constexpr std::size_t kWindowCapacity = 256;  ///< points per series
inline constexpr std::size_t kMaxEvents = 1024;

/// Event severity. severity_name() is the wire label the JSON "events"
/// section and cbma_inspect.py speak.
enum class Severity : std::uint8_t { kInfo, kWarning, kError, kCount };
const char* severity_name(Severity s);

/// One windowed sample: the window index it was recorded in, its value.
struct SeriesPoint {
  std::uint64_t window = 0;
  double value = 0.0;
};

/// One series' exported state: identity, unit, and its ring contents in
/// oldest → newest order (≤ kWindowCapacity points).
struct SeriesSnapshot {
  std::string name;
  std::string scope;  ///< "" = global rollup; "cell=3" = per-cell
  std::string unit;   ///< "" when dimensionless
  std::vector<SeriesPoint> points;
};

/// One structured event-log entry.
struct Event {
  std::uint64_t seq = 0;     ///< global record order
  std::uint64_t window = 0;  ///< window index at record time
  Severity severity = Severity::kInfo;
  std::string type;   ///< "roam", "code_slice_overflow", "watchdog", ...
  std::string scope;  ///< same scope vocabulary as series
  double value = 0.0;
  std::string detail;
};

/// The store's contents as telemetry::snapshot() copies them.
struct Store {
  std::uint64_t windows = 0;  ///< windows closed so far (advance_window calls)
  std::vector<SeriesSnapshot> series;  ///< sorted by (name, scope)
  std::vector<Event> events;           ///< seq order
  std::uint64_t dropped_points = 0;    ///< ring overwrites (oldest lost)
  std::uint64_t dropped_series = 0;    ///< pushes refused at kMaxSeries
  std::uint64_t dropped_events = 0;    ///< events refused at kMaxEvents
};

// --- master switch ---------------------------------------------------------

/// The CBMA_METRICS switch (util/env_switch.h): the value is the Prometheus
/// exposition path ("" = no file export). set_enabled(true) arms telemetry
/// too, as CBMA_METRICS does; set_enabled(false) leaves telemetry on.
bool enabled();
void set_enabled(bool on);
std::string export_path();
void set_export_path(std::string path);

// --- recording (all strict no-ops when disabled) ---------------------------

/// Append one sample to series (name, scope), stamping the current window.
/// `unit` is recorded on first touch of a series and ignored afterwards.
void push(std::string_view name, std::string_view scope, double value,
          std::string_view unit = {});

/// Append one event to the bounded log.
void push_event(Severity severity, std::string_view type,
                std::string_view scope, double value, std::string_view detail);

/// Close the current window. First telemetry's counter totals become
/// per-window deltas and its span histograms per-window
/// count/mean/p50/p90/p99 series (from the histogram *delta*, so each
/// window's percentiles cover only that window's spans), all stamped with
/// the closing window; samples pushed afterwards land in the next one.
/// Then, when export_path() is set, the Prometheus file is rewritten from
/// the store. Returns the new current window index. Call once per round
/// from a sequential context: no telemetry worker may be recording.
std::uint64_t advance_window();

// --- Prometheus text exposition --------------------------------------------

/// Render a store as Prometheus text exposition format: one gauge per
/// series carrying its latest value, scope rendered as a label
/// ("cell=3" → {cell="3"}), names sanitized to the metric charset with a
/// "cbma_" prefix, plus meta gauges (windows, series/event totals, drops).
std::string prometheus_text(const Store& store);

/// Atomically rewrite `path` with prometheus_text(store): write to
/// "<path>.tmp", then rename over the target, so a live scraper never sees
/// a torn file. Returns false with a stderr diagnostic on I/O failure.
bool write_prometheus(const std::string& path, const Store& store);

}  // namespace cbma::metrics
