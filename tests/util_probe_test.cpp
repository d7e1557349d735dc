// util/probe unit coverage: the strict-identity off path (no storage, no
// state), the bounded capture mechanics (per-tap caps, truncation, dropped
// counters, the frame log's one cap under the probe alone), IQ
// interleaving, sweep-point labelling via ScopedPoint, and the tap name
// table the manifest format depends on. The capture is read back through
// telemetry::snapshot() and cleared by telemetry::reset(), the one store's
// snapshot and reset.
//
// Every test starts from the shared observability fixture, so enabling
// probing here cannot leak into other tests.
#include "util/probe.h"

#include <gtest/gtest.h>

#include <complex>
#include <set>
#include <string>
#include <vector>

#include "observability_fixture.h"
#include "util/telemetry.h"

namespace cbma::probe {
namespace {

class UtilProbe : public ObservabilityTest {};

Capture snapshot() { return telemetry::snapshot().probe; }
void reset() { telemetry::reset(); }

TEST_F(UtilProbe, TapNamesAreCompleteAndUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kTapCount; ++i) {
    const std::string n = tap_name(static_cast<Tap>(i));
    EXPECT_NE(n, "unknown") << "tap " << i << " is unnamed";
    EXPECT_FALSE(n.empty());
    EXPECT_TRUE(names.insert(n).second) << "duplicate tap name " << n;
  }
  // Out-of-range values still return a printable label, never null — the
  // manifest writer must not crash on a corrupted record.
  EXPECT_STREQ(tap_name(Tap::kCount), "unknown");
  EXPECT_STREQ(tap_name(static_cast<Tap>(200)), "unknown");
}

TEST_F(UtilProbe, DisabledRecordingIsANoOp) {
  set_enabled(false);
  const std::vector<double> samples{1.0, 2.0, 3.0};
  const std::vector<std::complex<double>> iq{{1.0, -1.0}};
  record_tap(Tap::kSyncEnergy, 0, samples);
  record_tap_iq(Tap::kCompositeIq, 0, iq);
  const telemetry::FrameRow row;
  telemetry::record_frames({&row, 1});
  { const ScopedPoint point(7); }
  const auto snap = telemetry::snapshot();
  EXPECT_TRUE(snap.probe.taps.empty());
  EXPECT_TRUE(snap.frames.empty());
  EXPECT_EQ(snap.probe.dropped_taps, 0u);
  EXPECT_EQ(snap.dropped_frames, 0u);

  // The disabled ScopedPoint left the thread's sweep-point label alone: a
  // tap recorded once probing is on still carries point 0.
  set_enabled(true);
  record_tap(Tap::kSyncEnergy, 0, samples);
  const auto labelled = snapshot();
  set_enabled(false);
  ASSERT_EQ(labelled.taps.size(), 1u);
  EXPECT_EQ(labelled.taps[0].point, 0u);
  reset();
}

TEST_F(UtilProbe, RecordsCarrySequenceContextAndData) {
  set_enabled(true);
  reset();
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0};
  record_tap(Tap::kSyncEnergy, 0, a);
  record_tap(Tap::kSoftBits, 4, b);
  telemetry::FrameRow lq;
  lq.tag = 2;
  lq.has_quality = true;
  lq.quality.snr_db = 12.5;
  telemetry::record_frames({&lq, 1});
  const auto snap = telemetry::snapshot();
  const auto& capture = snap.probe;
  set_enabled(false);

  ASSERT_EQ(capture.taps.size(), 2u);
  EXPECT_EQ(capture.taps[0].tap, Tap::kSyncEnergy);
  EXPECT_EQ(capture.taps[0].context, 0u);
  EXPECT_EQ(capture.taps[0].data, a);
  EXPECT_FALSE(capture.taps[0].complex_iq);
  EXPECT_EQ(capture.taps[1].tap, Tap::kSoftBits);
  EXPECT_EQ(capture.taps[1].context, 4u);
  // seq is a single global order across taps AND frame rows.
  EXPECT_LT(capture.taps[0].seq, capture.taps[1].seq);
  ASSERT_EQ(snap.frames.size(), 1u);
  EXPECT_EQ(snap.frames[0].tag, 2u);
  EXPECT_DOUBLE_EQ(snap.frames[0].quality.snr_db, 12.5);
  EXPECT_LT(capture.taps[1].seq, snap.frames[0].seq);
  reset();
}

TEST_F(UtilProbe, ComplexRecordsInterleaveReIm) {
  set_enabled(true);
  reset();
  const std::vector<std::complex<double>> iq{{1.0, -2.0}, {3.0, 4.0}};
  record_tap_iq(Tap::kCompositeIq, 0, iq);
  const auto capture = snapshot();
  set_enabled(false);

  ASSERT_EQ(capture.taps.size(), 1u);
  const auto& r = capture.taps[0];
  EXPECT_TRUE(r.complex_iq);
  ASSERT_EQ(r.data.size(), 4u);
  EXPECT_DOUBLE_EQ(r.data[0], 1.0);
  EXPECT_DOUBLE_EQ(r.data[1], -2.0);
  EXPECT_DOUBLE_EQ(r.data[2], 3.0);
  EXPECT_DOUBLE_EQ(r.data[3], 4.0);
  reset();
}

TEST_F(UtilProbe, PerTapCapDropsOverflowAndCounts) {
  set_enabled(true);
  reset();
  const std::vector<double> sample{1.0};
  for (std::size_t i = 0; i < kMaxRecordsPerTap + 10; ++i) {
    record_tap(Tap::kSyncEnergy, 0, sample);
  }
  // A different tap still has its own budget.
  record_tap(Tap::kSoftBits, 0, sample);
  const auto capture = snapshot();
  set_enabled(false);

  EXPECT_EQ(capture.taps.size(), kMaxRecordsPerTap + 1);
  EXPECT_EQ(capture.dropped_taps, 10u);
  reset();
}

TEST_F(UtilProbe, OverlongRecordsAreTruncatedNotDropped) {
  set_enabled(true);
  reset();
  const std::vector<double> big(kMaxSamplesPerRecord + 100, 1.5);
  record_tap(Tap::kCorrelationProfile, 1, big);
  const auto capture = snapshot();
  set_enabled(false);

  ASSERT_EQ(capture.taps.size(), 1u);
  EXPECT_EQ(capture.taps[0].data.size(), kMaxSamplesPerRecord);
  EXPECT_EQ(capture.dropped_taps, 0u);
  reset();
}

TEST_F(UtilProbe, LinkQualityCapDropsOverflow) {
  // The link rows are frame-log rows: the probe alone arms the log, and
  // the log's one cap bounds them.
  set_enabled(true);
  reset();
  telemetry::FrameRow row;
  row.has_quality = true;
  for (std::size_t i = 0; i < telemetry::kMaxFrameRows + 5; ++i) {
    telemetry::record_frames({&row, 1});
  }
  const auto snap = telemetry::snapshot();
  set_enabled(false);

  EXPECT_EQ(snap.frames.size(), telemetry::kMaxFrameRows);
  EXPECT_EQ(snap.dropped_frames, 5u);
  reset();
}

TEST_F(UtilProbe, ScopedPointLabelsRecordsAndRestores) {
  set_enabled(true);
  reset();
  // Record k carries the sample value k, so each label can be checked
  // whatever order the export puts the records in.
  const auto record = [](double k) {
    const std::vector<double> sample{k};
    record_tap(Tap::kSyncEnergy, 0, sample);
  };
  record(0);  // outside any sweep: point 0
  {
    const ScopedPoint outer(3);
    record(1);
    {
      const ScopedPoint inner(9);
      record(2);
    }
    record(3);
  }
  record(4);
  const auto capture = snapshot();
  set_enabled(false);

  ASSERT_EQ(capture.taps.size(), 5u);
  std::vector<std::uint64_t> point_of(5);
  for (const auto& r : capture.taps) {
    point_of[static_cast<std::size_t>(r.data.at(0))] = r.point;
  }
  EXPECT_EQ(point_of[0], 0u);
  EXPECT_EQ(point_of[1], 3u);
  EXPECT_EQ(point_of[2], 9u);
  EXPECT_EQ(point_of[3], 3u);  // inner scope restored the label
  EXPECT_EQ(point_of[4], 0u);  // and so did the outer one
  reset();
}

TEST_F(UtilProbe, ResetClearsCaptureAndSequence) {
  set_enabled(true);
  reset();
  const std::vector<double> sample{1.0};
  record_tap(Tap::kSyncEnergy, 0, sample);
  const telemetry::FrameRow row;
  telemetry::record_frames({&row, 1});
  EXPECT_EQ(snapshot().taps.size(), 1u);
  reset();
  EXPECT_TRUE(snapshot().taps.empty());
  record_tap(Tap::kSyncEnergy, 0, sample);
  const auto snap = telemetry::snapshot();
  set_enabled(false);

  ASSERT_EQ(snap.probe.taps.size(), 1u);
  EXPECT_EQ(snap.probe.taps[0].seq, 0u);  // sequence counter restarted
  EXPECT_TRUE(snap.frames.empty());
  reset();
}

TEST_F(UtilProbe, DumpPathIsProgrammable) {
  set_dump_path("probe_test_dump.bin");
  EXPECT_EQ(dump_path(), "probe_test_dump.bin");
  set_dump_path("");
  EXPECT_EQ(dump_path(), "");
}

}  // namespace
}  // namespace cbma::probe
