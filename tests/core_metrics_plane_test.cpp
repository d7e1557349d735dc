// The metrics plane's windowing and exports (DESIGN.md §12):
// metrics::advance_window() and the plane table's "metrics" row. Pins the
// two contracts the benches rely on:
//
// 1. Disabled is a strict identity — every entry point returns before
//    touching storage, and the plane never arms telemetry while off.
// 2. The enabled path derives correct *windowed* series: telemetry counter
//    totals become per-window deltas, span histograms become per-window
//    percentiles (not cumulative ones), and the JSON/Prometheus exports are
//    well-formed. Per-cell attribution is net::Network's, tested there.
//
// Every test starts from the shared observability fixture, so flipping the
// metrics/telemetry flags here cannot leak into other tests.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/observability.h"
#include "observability_fixture.h"
#include "util/json.h"
#include "util/telemetry.h"

namespace cbma::core {
namespace {

class MetricsPlane : public ObservabilityTest {};

/// Find one series in a snapshot by (name, scope); nullptr when absent.
const metrics::SeriesSnapshot* find_series(const metrics::Store& snap,
                                           const std::string& name,
                                           const std::string& scope) {
  for (const auto& s : snap.series) {
    if (s.name == name && s.scope == scope) return &s;
  }
  return nullptr;
}

/// Bring the plane up for an in-memory test: no Prometheus file, clean
/// store and baselines.
void enable_in_memory() {
  metrics::set_enabled(true);
  metrics::set_export_path("");
  telemetry::reset();
}

void tear_down() {
  metrics::set_enabled(false);
  telemetry::set_enabled(false);
  metrics::set_export_path("");
  telemetry::reset();
}

TEST_F(MetricsPlane, DisabledEntryPointsAreNoOps) {
  metrics::set_enabled(false);
  EXPECT_FALSE(metrics::enabled());
  metrics::push("net.goodput_bps", {}, 1.0);
  metrics::push_event(metrics::Severity::kInfo, "roam", {}, 0.0, {});
  metrics::advance_window();
  EXPECT_TRUE(core::write_observability_artifacts());
  EXPECT_TRUE(telemetry::snapshot().metrics.series.empty());
  // An off plane must never have armed telemetry as a side effect.
  EXPECT_FALSE(telemetry::enabled());
}

TEST_F(MetricsPlane, EnableArmsTelemetryAndSetsTheExpositionPath) {
  ASSERT_FALSE(telemetry::enabled());
  const auto path = ::testing::TempDir() + "cbma_plane_test.prom";
  metrics::set_enabled(true);
  metrics::set_export_path(path);
  EXPECT_TRUE(metrics::enabled());
  // The counter/span series need a source: going live arms telemetry.
  EXPECT_TRUE(telemetry::enabled());
  EXPECT_EQ(metrics::export_path(), path);
  // Turning metrics off leaves telemetry as the switch left it: on.
  metrics::set_enabled(false);
  EXPECT_TRUE(telemetry::enabled());
  tear_down();
}

TEST_F(MetricsPlane, TickClosesOneWindowPerCall) {
  enable_in_memory();
  for (int r = 0; r < 3; ++r) {
    metrics::push("net.goodput_bps", {}, static_cast<double>(r), "bps");
    metrics::advance_window();
  }
  metrics::push("net.goodput_bps", {}, 3.0, "bps");
  const auto snap = telemetry::snapshot().metrics;
  tear_down();

  // Three closes made three windows; the fourth sample is in the open one.
  EXPECT_EQ(snap.windows, 3u);
  const auto* s = find_series(snap, "net.goodput_bps", "");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(s->points[k].window, k) << "round " << k;
  }
}

TEST_F(MetricsPlane, CounterSeriesCarryPerWindowDeltas) {
  enable_in_memory();
  telemetry::add_count(telemetry::Counter::kChannelSamples, 5);
  metrics::advance_window();
  telemetry::add_count(telemetry::Counter::kChannelSamples, 3);
  metrics::advance_window();
  metrics::advance_window();  // quiet window: the counter still charts, as 0
  const auto snap = telemetry::snapshot().metrics;
  tear_down();

  const auto* s = find_series(snap, "channel.samples", "");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 3u);
  EXPECT_DOUBLE_EQ(s->points[0].value, 5.0);  // not the cumulative 5
  EXPECT_DOUBLE_EQ(s->points[1].value, 3.0);  // not the cumulative 8
  EXPECT_DOUBLE_EQ(s->points[2].value, 0.0);
  // A counter that never fired creates no series at all.
  EXPECT_EQ(find_series(snap, "net.tag_roams", ""), nullptr);
}

TEST_F(MetricsPlane, SpanSeriesCarryPerWindowPercentiles) {
  enable_in_memory();
  // Window 0: 100 spans of ~100 ns. Window 1: 100 spans of ~1000 ns. A
  // cumulative percentile would blend the two; the per-window delta must
  // track each population separately (within the 12.5 % sub-bucket width).
  for (int k = 0; k < 100; ++k) {
    telemetry::record_span(telemetry::Span::kRxDecode, k, 100);
  }
  metrics::advance_window();
  for (int k = 0; k < 100; ++k) {
    telemetry::record_span(telemetry::Span::kRxDecode, k, 1000);
  }
  metrics::advance_window();
  const auto snap = telemetry::snapshot().metrics;
  tear_down();

  const auto* count = find_series(snap, "rx/decode.count", "");
  const auto* mean = find_series(snap, "rx/decode.mean_ns", "");
  const auto* p50 = find_series(snap, "rx/decode.p50_ns", "");
  const auto* p99 = find_series(snap, "rx/decode.p99_ns", "");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(mean, nullptr);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_EQ(count->points.size(), 2u);
  EXPECT_DOUBLE_EQ(count->points[0].value, 100.0);
  EXPECT_DOUBLE_EQ(count->points[1].value, 100.0);
  EXPECT_DOUBLE_EQ(mean->points[0].value, 100.0);
  EXPECT_DOUBLE_EQ(mean->points[1].value, 1000.0);
  EXPECT_EQ(mean->unit, "ns");
  ASSERT_EQ(p50->points.size(), 2u);
  EXPECT_NEAR(p50->points[0].value, 100.0, 0.125 * 100.0);
  EXPECT_NEAR(p50->points[1].value, 1000.0, 0.125 * 1000.0);
  EXPECT_NEAR(p99->points[1].value, 1000.0, 0.125 * 1000.0);
  // A span that never fired in a window contributes no point for it.
  EXPECT_EQ(find_series(snap, "transmit/total.count", ""), nullptr);
}

TEST_F(MetricsPlane, JsonSectionParsesAndMatchesTheSchema) {
  enable_in_memory();
  metrics::push("net.goodput_bps", {}, 100.0, "bps");
  metrics::push("net.cell.fer", "cell=1", 0.5);
  metrics::push_event(metrics::Severity::kWarning, "code_slice_overflow",
                      "cell=1", 1.0, "3 members for 2 served slots");
  metrics::advance_window();
  const ObservabilityPlane& plane = observability_planes()[2];
  ASSERT_STREQ(plane.name, "metrics");
  util::JsonWriter w;
  w.begin_object();
  plane.write_json_section(w, telemetry::snapshot());
  w.end_object();
  tear_down();

  const auto doc = util::json_parse(w.str());
  ASSERT_TRUE(doc.is_object());
  const auto& ts = doc.at("timeseries");
  ASSERT_TRUE(ts.is_object());
  EXPECT_EQ(ts.at("windows").number, 1.0);
  EXPECT_GT(ts.at("window_capacity").number, 0.0);
  for (const char* k : {"points", "series", "events"}) {
    EXPECT_EQ(ts.at("dropped").at(k).number, 0.0) << k;
  }
  ASSERT_TRUE(ts.at("series").is_array());
  ASSERT_FALSE(ts.at("series").array.empty());
  bool saw_scoped = false;
  for (const auto& s : ts.at("series").array) {
    EXPECT_FALSE(s.at("name").string.empty());
    if (s.at("scope").string == "cell=1") saw_scoped = true;
    ASSERT_TRUE(s.at("points").is_array());
    for (const auto& p : s.at("points").array) {
      ASSERT_TRUE(p.is_array());
      ASSERT_EQ(p.array.size(), 2u);  // [window, value]
    }
  }
  EXPECT_TRUE(saw_scoped);
  const auto& events = doc.at("events");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 1u);
  const auto& e = events.array[0];
  EXPECT_EQ(e.at("seq").number, 0.0);
  EXPECT_EQ(e.at("severity").string, "warning");
  EXPECT_EQ(e.at("type").string, "code_slice_overflow");
  EXPECT_EQ(e.at("scope").string, "cell=1");
  EXPECT_EQ(e.at("value").number, 1.0);
  EXPECT_EQ(e.at("detail").string, "3 members for 2 served slots");
}

TEST_F(MetricsPlane, PrometheusExportHonoursTheConfiguredPath) {
  enable_in_memory();
  metrics::push("net.goodput_bps", {}, 7.0, "bps");
  // No path configured: a successful no-op, no file appears.
  EXPECT_TRUE(core::write_observability_artifacts());

  const auto path = ::testing::TempDir() + "cbma_plane_export.prom";
  std::remove(path.c_str());
  metrics::set_export_path(path);
  // advance_window() itself rewrites the snapshot at every window boundary.
  metrics::advance_window();
  tear_down();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("cbma_net_goodput_bps 7"), std::string::npos);
  EXPECT_NE(text.find("cbma_metrics_windows_total 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(MetricsPlane, ResetClearsSeriesEventsAndTelemetryBaselines) {
  enable_in_memory();
  telemetry::add_count(telemetry::Counter::kChannelSamples, 5);
  metrics::advance_window();
  metrics::push_event(metrics::Severity::kInfo, "roam", {}, 0.0, {});
  ASSERT_FALSE(telemetry::snapshot().metrics.series.empty());

  telemetry::reset();
  const auto cleared = telemetry::snapshot().metrics;
  EXPECT_TRUE(cleared.series.empty());
  EXPECT_TRUE(cleared.events.empty());
  EXPECT_EQ(cleared.windows, 0u);
  // The one reset zeroed the counters and the baselines together: the next
  // window reports what was counted since, not a delta against the
  // pre-reset total.
  telemetry::add_count(telemetry::Counter::kChannelSamples, 2);
  metrics::advance_window();
  const auto snap = telemetry::snapshot().metrics;
  tear_down();
  const auto* s = find_series(snap, "channel.samples", "");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 1u);
  EXPECT_DOUBLE_EQ(s->points.back().value, 2.0);
}

TEST_F(MetricsPlane, WindowAfterResetCountsFromZero) {
  // Regression: a reset used to clear telemetry's totals but not the
  // plane's window baselines, so the next window's delta wrapped around
  // (1 - 3 as uint64 = 1.8e19).
  enable_in_memory();
  for (int w = 0; w < 3; ++w) {
    telemetry::count(telemetry::Counter::kNetRoundsRun);
    { const telemetry::ScopedSpan round(telemetry::Span::kNetRound); }
    metrics::advance_window();
  }
  telemetry::reset();
  telemetry::count(telemetry::Counter::kNetRoundsRun);
  { const telemetry::ScopedSpan round(telemetry::Span::kNetRound); }
  metrics::advance_window();
  const auto snap = telemetry::snapshot().metrics;
  tear_down();

  for (const char* name : {"net.rounds", "net/round.count"}) {
    const auto* s = find_series(snap, name, "");
    ASSERT_NE(s, nullptr) << name;
    EXPECT_DOUBLE_EQ(s->points.back().value, 1.0) << name;
  }
}

}  // namespace
}  // namespace cbma::core
