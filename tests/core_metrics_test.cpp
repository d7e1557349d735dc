#include "core/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rx/receiver.h"

namespace cbma::core {
namespace {

TEST(RoundStats, StartsEmpty) {
  const RoundStats s(3);
  EXPECT_EQ(s.total_sent(), 0u);
  EXPECT_EQ(s.total_acked(), 0u);
  EXPECT_DOUBLE_EQ(s.frame_error_rate(), 0.0);
}

TEST(RoundStats, RecordAccumulates) {
  RoundStats s(2);
  s.record(0, true);
  s.record(0, false);
  s.record(1, true);
  EXPECT_EQ(s.sent[0], 2u);
  EXPECT_EQ(s.acked[0], 1u);
  EXPECT_EQ(s.sent[1], 1u);
  EXPECT_EQ(s.total_sent(), 3u);
  EXPECT_EQ(s.total_acked(), 2u);
}

TEST(RoundStats, RecordValidatesSlot) {
  RoundStats s(2);
  EXPECT_THROW(s.record(2, true), std::invalid_argument);
}

TEST(RoundStats, AckRatios) {
  RoundStats s(3);
  s.record(0, true);
  s.record(0, true);
  s.record(1, true);
  s.record(1, false);
  // slot 2 sent nothing.
  const auto r = s.ack_ratios();
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 0.5);
  EXPECT_DOUBLE_EQ(r[2], 0.0);
}

TEST(RoundStats, FrameErrorRateDefinition) {
  // §IV: missing packets over transmitted packets.
  RoundStats s(2);
  for (int i = 0; i < 10; ++i) s.record(0, i < 8);  // 8/10
  for (int i = 0; i < 10; ++i) s.record(1, i < 4);  // 4/10
  EXPECT_NEAR(s.frame_error_rate(), 1.0 - 12.0 / 20.0, 1e-12);
}

TEST(RoundStats, MergeAddsCounters) {
  RoundStats a(2), b(2);
  a.record(0, true);
  b.record(0, false);
  b.record(1, true);
  a.merge(b);
  EXPECT_EQ(a.sent[0], 2u);
  EXPECT_EQ(a.acked[0], 1u);
  EXPECT_EQ(a.sent[1], 1u);
  EXPECT_EQ(a.acked[1], 1u);
}

TEST(RoundStats, MergeValidatesArity) {
  RoundStats a(2), b(3);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(RoundStats, RecordOutcomeTalliesAndIgnoresOutOfRange) {
  RoundStats s(2);
  s.record_outcome(static_cast<std::size_t>(rx::DecodeOutcome::kOk));
  s.record_outcome(static_cast<std::size_t>(rx::DecodeOutcome::kOk));
  s.record_outcome(static_cast<std::size_t>(rx::DecodeOutcome::kBadCrc));
  // Out-of-range indices are dropped, not asserted: the tally is advisory
  // observability state, never control flow.
  s.record_outcome(rx::kDecodeOutcomeCount);
  s.record_outcome(rx::kDecodeOutcomeCount + 7);
  EXPECT_EQ(s.outcomes[static_cast<std::size_t>(rx::DecodeOutcome::kOk)], 2u);
  EXPECT_EQ(s.outcomes[static_cast<std::size_t>(rx::DecodeOutcome::kBadCrc)],
            1u);
  std::size_t total = 0;
  for (const auto n : s.outcomes) total += n;
  EXPECT_EQ(total, 3u);
}

TEST(RoundStats, MergeSumsOutcomesAndLinkQuality) {
  RoundStats a(2), b(2);
  a.record_outcome(0);
  b.record_outcome(0);
  b.record_outcome(1);
  rx::LinkQualityReport q;
  q.valid = true;
  q.snr_db = 12.0;
  q.evm = 0.2;
  q.soft_margin = 0.5;
  q.margin_ratio = 2.0;
  q.power_norm = 0.25;
  q.correlation = 0.8;
  a.record_quality(q);
  q.snr_db = 6.0;
  b.record_quality(q);
  // An invalid report contributes nothing to either side.
  rx::LinkQualityReport invalid;
  invalid.snr_db = 1e9;
  b.record_quality(invalid);

  a.merge(b);
  EXPECT_EQ(a.outcomes[0], 2u);
  EXPECT_EQ(a.outcomes[1], 1u);
  EXPECT_EQ(a.quality.frames, 2u);
  EXPECT_DOUBLE_EQ(a.quality.sum.snr_db, 18.0);
  EXPECT_DOUBLE_EQ(a.quality.mean().snr_db, 9.0);
  EXPECT_DOUBLE_EQ(a.quality.mean().evm, 0.2);
  EXPECT_DOUBLE_EQ(a.quality.mean().correlation, 0.8);
  // Means are defined (0) over zero frames — the no-decodes round.
  EXPECT_EQ(RoundStats(1).quality.mean(), util::LinkQuality{});
}

}  // namespace
}  // namespace cbma::core
