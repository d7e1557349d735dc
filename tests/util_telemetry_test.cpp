// util/telemetry unit coverage: the pieces the pipeline-level tests can't
// pin exactly — histogram quantile accuracy against synthetic durations,
// counter arithmetic, name-table completeness/uniqueness, and the capped
// frame log via direct record_frames calls.
//
// Every test starts from the shared observability fixture; the two that
// count registered sinks run their bodies in a fresh process.
#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "observability_fixture.h"

namespace cbma::telemetry {
namespace {

class UtilTelemetry : public ObservabilityTest {};

TEST_F(UtilTelemetry, SpanAndCounterNamesAreCompleteAndUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const std::string n = span_name(static_cast<Span>(i));
    EXPECT_NE(n, "unknown") << "span " << i << " is unnamed";
    // "layer/stage" scheme (DESIGN.md §7).
    EXPECT_NE(n.find('/'), std::string::npos) << n;
    EXPECT_TRUE(names.insert(n).second) << "duplicate span name " << n;
  }
  names.clear();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string n = counter_name(static_cast<Counter>(i));
    EXPECT_NE(n, "unknown") << "counter " << i << " is unnamed";
    // "layer.event" scheme.
    EXPECT_NE(n.find('.'), std::string::npos) << n;
    EXPECT_TRUE(names.insert(n).second) << "duplicate counter name " << n;
  }
  EXPECT_GE(kCounterCount, 10u);  // the acceptance bar for named counters
}

TEST_F(UtilTelemetry, DisabledRecordingIsANoOp) {
  in_fresh_process([] {
    set_enabled(false);
    record_span(Span::kRxProcess, 1, 100);
    add_count(Counter::kRxDetections, 5);
    const FrameRow row;
    record_frames({&row, 1});
    { const ScopedSpan span(Span::kRxDecode); }
    EXPECT_EQ(sink_count(), 0u);
    const auto snap = snapshot();
    EXPECT_TRUE(snap.spans.empty());
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.frames.empty());
  });
}

TEST_F(UtilTelemetry, SpanStatisticsAndQuantilesWithinBucketError) {
  set_enabled(true);
  reset();
  // 1..1000 ns, shuffled order must not matter for rank statistics.
  std::vector<std::uint64_t> durations;
  for (std::uint64_t d = 1; d <= 1000; ++d) durations.push_back(d);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    const auto d = durations[(i * 7919) % durations.size()];
    record_span(Span::kRxDecode, /*start_ns=*/i, d);
    total += d;
  }
  const auto snap = snapshot();
  set_enabled(false);

  ASSERT_EQ(snap.spans.size(), 1u);
  const auto& s = snap.spans[0];
  EXPECT_EQ(s.name, "rx/decode");
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.total_ns, total);
  EXPECT_EQ(s.min_ns, 1u);
  EXPECT_EQ(s.max_ns, 1000u);
  EXPECT_NEAR(s.mean_ns, 500.5, 1e-9);
  // Histogram quantiles are exact to the sub-bucket width: ≤ 12.5 %.
  EXPECT_NEAR(s.p50_ns, 500.0, 0.125 * 500.0);
  EXPECT_NEAR(s.p90_ns, 900.0, 0.125 * 900.0);
  EXPECT_NEAR(s.p99_ns, 990.0, 0.125 * 990.0);
  reset();
}

TEST_F(UtilTelemetry, CountersAccumulateAcrossCalls) {
  set_enabled(true);
  reset();
  add_count(Counter::kChannelSamples, 100);
  add_count(Counter::kChannelSamples, 23);
  count(Counter::kChannelWindows);         // default n = 1
  count(Counter::kChannelWindows, 2);
  const auto snap = snapshot();
  set_enabled(false);

  ASSERT_EQ(snap.counters.size(), 2u);
  std::uint64_t samples = 0, windows = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "channel.samples") samples = c.value;
    if (c.name == "channel.windows") windows = c.value;
  }
  EXPECT_EQ(samples, 123u);
  EXPECT_EQ(windows, 3u);
  reset();
}

TEST_F(UtilTelemetry, FrameLogKeepsTheSmallestKeysUnderEveryPlane) {
  // Each plane that arms the log alone, then both: a full log keeps the
  // rows with the smallest (point, item, capture order), whichever order
  // they arrive in, and counts every row it loses.
  constexpr std::size_t kExtra = 7;
  const auto record_at = [](std::size_t point, std::vector<FrameRow> rows) {
    const probe::ScopedPoint label(point);
    record_frames(rows);
  };
  const auto row = [](std::uint32_t tag) {
    FrameRow r;
    r.tag = tag;
    return r;
  };
  for (const auto& [telemetry_on, probe_on] :
       {std::pair{true, false}, {false, true}, {true, true}}) {
    SCOPED_TRACE(testing::Message() << "telemetry " << telemetry_on
                                    << ", probe " << probe_on);
    set_enabled(telemetry_on);
    probe::set_enabled(probe_on);
    reset();
    // Points from kMaxFrameRows + kExtra down to 1, one row each, tagged
    // with its point: the last kExtra rows evict the largest points.
    for (std::size_t p = kMaxFrameRows + kExtra; p >= 1; --p) {
      record_at(p, {row(static_cast<std::uint32_t>(p))});
    }
    // A newcomer above the largest kept key is the one dropped; two more
    // rows at point 1 evict the two largest points and keep their capture
    // order behind the first row there.
    record_at(kMaxFrameRows + 1, {row(0)});
    record_at(1, {row(100), row(101)});
    const auto snap = snapshot();

    ASSERT_EQ(snap.frames.size(), kMaxFrameRows);
    EXPECT_EQ(snap.dropped_frames, kExtra + 3);
    const std::vector<std::uint32_t> first{snap.frames[0].tag,
                                           snap.frames[1].tag,
                                           snap.frames[2].tag};
    EXPECT_EQ(first, (std::vector<std::uint32_t>{1, 100, 101}));
    for (std::size_t i = 0; i < snap.frames.size(); ++i) {
      const auto& f = snap.frames[i];
      EXPECT_EQ(f.seq, i);  // renumbered in export order
      EXPECT_GT(f.ts_ns, 0u);
      if (i >= 3) {
        ASSERT_EQ(f.point, i - 1) << "row " << i;
        EXPECT_EQ(f.tag, i - 1);
      }
    }
  }
  set_enabled(false);
  probe::set_enabled(false);
  reset();
}

TEST_F(UtilTelemetry, ResetClearsDataButKeepsSinksRegistered) {
  in_fresh_process([] {
    set_enabled(true);
    reset();
    record_span(Span::kSweepPoint, 1, 50);
    add_count(Counter::kSweepPoints, 1);
    ASSERT_EQ(sink_count(), 1u);
    reset();
    const auto snap = snapshot();
    set_enabled(false);
    EXPECT_TRUE(snap.spans.empty());
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_EQ(sink_count(), 1u);
  });
}

TEST_F(UtilTelemetry, TraceEventsCapturedOnlyWhenTraceFlagOn) {
  set_enabled(true);
  reset();
  record_span(Span::kRxDetect, 10, 5);
  EXPECT_TRUE(snapshot().events.empty());
  set_trace_enabled(true);
  record_span(Span::kRxDetect, 20, 5);
  record_span(Span::kRxDecode, 30, 7);
  set_trace_enabled(false);
  const auto snap = snapshot();
  set_enabled(false);

  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.events[0].span, Span::kRxDetect);
  EXPECT_EQ(snap.events[0].ts_ns, 20u);
  EXPECT_EQ(snap.events[1].dur_ns, 7u);
  reset();
}

TEST_F(UtilTelemetry, TraceCapturePastTheSinkCapIsCountedNotKept) {
  set_enabled(true);
  set_trace_enabled(true);
  reset();
  for (std::size_t i = 0; i < kMaxTraceEventsPerSink + 3; ++i) {
    record_span(Span::kRxDetect, i, 5);
  }
  set_trace_enabled(false);
  const auto snap = snapshot();
  set_enabled(false);

  // The histogram keeps every occurrence; the timeline keeps the first
  // kMaxTraceEventsPerSink and the counter names the rest.
  EXPECT_EQ(snap.events.size(), kMaxTraceEventsPerSink);
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].count, kMaxTraceEventsPerSink + 3);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].id, Counter::kTraceEventsDropped);
  EXPECT_EQ(snap.counters[0].name, "trace.events_dropped");
  EXPECT_EQ(snap.counters[0].value, 3u);
  reset();
}

// --- histogram bucketing edges (the metrics plane's percentile substrate) --

TEST_F(UtilTelemetry, HistogramBucketsAreExactBelowEight) {
  // Indices 0–7 hold the exact small values: no quantization at all.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(histogram_bucket_of(v), static_cast<std::size_t>(v));
    EXPECT_DOUBLE_EQ(histogram_bucket_mid(v), static_cast<double>(v));
  }
  // The first quantized bucket starts exactly at 8.
  EXPECT_EQ(histogram_bucket_of(8), 8u);
  EXPECT_EQ(histogram_bucket_of(9), 8u);  // [8, 10) share a quarter-octave
  EXPECT_EQ(histogram_bucket_of(10), 9u);
}

TEST_F(UtilTelemetry, HistogramBucketsAreMonotoneAndSubBucketTight) {
  std::size_t prev = 0;
  for (const std::uint64_t v :
       {1ull, 7ull, 8ull, 15ull, 16ull, 100ull, 1000ull, 12345ull,
        1ull << 20, (1ull << 20) + 1, 987654321ull, 1ull << 40,
        1ull << 62}) {
    const std::size_t b = histogram_bucket_of(v);
    EXPECT_GE(b, prev) << "bucket index regressed at " << v;
    prev = b;
    EXPECT_LT(b, kHistogramBuckets);
    // The bucket midpoint is within the documented sub-bucket width of any
    // member value: ≤ 12.5 % relative error (exact below 8).
    EXPECT_NEAR(histogram_bucket_mid(b), static_cast<double>(v),
                0.125 * static_cast<double>(v))
        << "bucket " << b << " for " << v;
  }
}

TEST_F(UtilTelemetry, HistogramSaturatesWithoutOverflowAtUint64Max) {
  const std::size_t top = histogram_bucket_of(~0ull);
  ASSERT_LT(top, kHistogramBuckets);
  // Every smaller value lands at or below the top bucket, and the top
  // midpoint still approximates the extreme within the sub-bucket width.
  EXPECT_LE(histogram_bucket_of(~0ull >> 1), top);
  EXPECT_NEAR(histogram_bucket_mid(top), static_cast<double>(~0ull),
              0.125 * static_cast<double>(~0ull));
}

TEST_F(UtilTelemetry, HistogramQuantileOfASingleSampleIsThatSample) {
  // One sample: every percentile is that sample's bucket midpoint — p50,
  // p90 and p99 must agree exactly (the window edge the metrics plane hits
  // whenever a span fired once in a window).
  std::uint64_t buckets[kHistogramBuckets] = {};
  buckets[histogram_bucket_of(500)] = 1;
  const double mid = histogram_bucket_mid(histogram_bucket_of(500));
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 1, q, -1.0), mid) << q;
  }
  EXPECT_NEAR(mid, 500.0, 0.125 * 500.0);
}

TEST_F(UtilTelemetry, HistogramQuantileAtBucketBoundaries) {
  // Two populations in distinct buckets: the quantile walk must switch
  // buckets exactly at the cumulative-rank boundary. 10 samples at 100 ns
  // and 90 at 10000 ns → p50/p90/p99 sit in the big bucket, p0 in the
  // small one.
  std::uint64_t buckets[kHistogramBuckets] = {};
  buckets[histogram_bucket_of(100)] = 10;
  buckets[histogram_bucket_of(10000)] = 90;
  const double lo = histogram_bucket_mid(histogram_bucket_of(100));
  const double hi = histogram_bucket_mid(histogram_bucket_of(10000));
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.0, -1.0), lo);
  // Rank floor(0.09·99) = 8 is still inside the low-bucket count of 10.
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.09, -1.0), lo);
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.5, -1.0), hi);
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.99, -1.0), hi);
}

TEST_F(UtilTelemetry, HistogramQuantileFallsBackOnEmptyOrInconsistentInput) {
  std::uint64_t buckets[kHistogramBuckets] = {};
  // Empty histogram: the caller's fallback comes back verbatim.
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 0, 0.5, 123.25), 123.25);
  // A count larger than the buckets actually hold (torn sample): the rank
  // walks off the end and the fallback protects the caller again.
  buckets[histogram_bucket_of(100)] = 2;
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 10, 0.99, -7.5), -7.5);
}

}  // namespace
}  // namespace cbma::telemetry
