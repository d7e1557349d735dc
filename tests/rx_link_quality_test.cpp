// rx/link_quality unit coverage: compute_link_quality's moment math on
// synthetic soft-bit sets, the margin-ratio cap, the correlation_margin
// field the detector now fills on every TagDecodeResult, and the
// to_string(DecodeOutcome) label table (exhaustive — every enumerator
// gets a unique stable name, unknown values never return null).
#include "rx/link_quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "rx/receiver.h"

namespace cbma::rx {
namespace {

TEST(RxLinkQuality, EmptySoftValuesYieldInvalidReport) {
  const auto report = compute_link_quality({}, 1.0, 0.5, 1.0);
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.snr_db, 0.0);
  EXPECT_EQ(report.margin_ratio, 0.0);
}

TEST(RxLinkQuality, NoiselessBipolarSoftValuesHitTheCaps) {
  // Constant |soft| = 1: zero variance, so the SNR estimate saturates at
  // the cap, EVM is zero and every bit sits exactly at the mean.
  const std::vector<double> soft{1.0, -1.0, 1.0, 1.0, -1.0};
  const auto report = compute_link_quality(soft, 2.0, 1.0, 1.0);
  ASSERT_TRUE(report.valid);
  EXPECT_NEAR(report.snr_db, 10.0 * std::log10(kMaxMarginRatio), 1e-9);
  EXPECT_DOUBLE_EQ(report.evm, 0.0);
  EXPECT_DOUBLE_EQ(report.soft_margin, 1.0);
  EXPECT_DOUBLE_EQ(report.margin_ratio, 2.0);
  EXPECT_DOUBLE_EQ(report.power_norm, 1.0);
  EXPECT_DOUBLE_EQ(report.correlation, 2.0);
}

TEST(RxLinkQuality, MomentsMatchHandComputedValues) {
  // |soft| = {3, 1}: mean 2, variance 1 -> SNR 10·log10(4) ≈ 6.02 dB,
  // EVM = 1/2, soft margin = 1/2.
  const std::vector<double> soft{3.0, -1.0};
  const auto report = compute_link_quality(soft, 5.0, 2.0, 4.0);
  ASSERT_TRUE(report.valid);
  EXPECT_NEAR(report.snr_db, 10.0 * std::log10(4.0), 1e-9);
  EXPECT_NEAR(report.evm, 0.5, 1e-12);
  EXPECT_NEAR(report.soft_margin, 0.5, 1e-12);
  EXPECT_NEAR(report.margin_ratio, 2.5, 1e-12);
  EXPECT_NEAR(report.power_norm, 0.5, 1e-12);
}

TEST(RxLinkQuality, TinySpreadOnALargeMeanMatchesTwoPassMoments) {
  // High SNR: |soft| = mean + a spread many orders of magnitude smaller.
  // sum2/n − mean² cancels here (to exactly 0 for the first set, to a wrong
  // value for the second); evm must match a two-pass reference. (snr_db is
  // no witness: mean²/var is far above kMaxMarginRatio, so it reads the cap.)
  for (const auto& [mean, step] : {std::pair{1e5, 1e-3}, std::pair{1e6, 1e-2}}) {
    std::vector<double> soft;
    for (int i = 0; i < 256; ++i) {
      const double a = mean + step * static_cast<double>(i % 7 - 3);
      soft.push_back(i % 2 == 0 ? a : -a);
    }
    double m = 0.0;
    for (const double s : soft) m += std::abs(s);
    m /= static_cast<double>(soft.size());
    double var = 0.0;
    for (const double s : soft) var += (std::abs(s) - m) * (std::abs(s) - m);
    var /= static_cast<double>(soft.size());

    const auto report = compute_link_quality(soft, 1.0, 0.0, 1.0);
    ASSERT_TRUE(report.valid);
    EXPECT_NEAR(report.evm, std::sqrt(var) / m, 1e-6 * std::sqrt(var) / m)
        << "mean " << mean;
  }
}

TEST(RxLinkQuality, ZeroRunnerUpCapsTheMarginRatio) {
  const std::vector<double> soft{1.0, 1.5};
  EXPECT_DOUBLE_EQ(compute_link_quality(soft, 3.0, 0.0, 1.0).margin_ratio,
                   kMaxMarginRatio);
  // A vanishing runner-up (below correlation / cap) is treated as zero.
  EXPECT_DOUBLE_EQ(compute_link_quality(soft, 3.0, 1e-9, 1.0).margin_ratio,
                   kMaxMarginRatio);
  // Zero window RMS (empty window) leaves power_norm at its default.
  EXPECT_DOUBLE_EQ(compute_link_quality(soft, 3.0, 1.0, 0.0).power_norm, 0.0);
}

TEST(RxLinkQuality, WorseSnrDegradesTheReportMonotonically) {
  // Same mean amplitude, growing spread: the estimator must order them.
  const std::vector<double> clean{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> mid{1.2, -0.8, 1.1, -0.9};
  const std::vector<double> noisy{1.8, -0.2, 1.5, -0.5};
  const double snr_clean = compute_link_quality(clean, 1, 0, 1).snr_db;
  const double snr_mid = compute_link_quality(mid, 1, 0, 1).snr_db;
  const double snr_noisy = compute_link_quality(noisy, 1, 0, 1).snr_db;
  EXPECT_GT(snr_clean, snr_mid);
  EXPECT_GT(snr_mid, snr_noisy);
  EXPECT_LT(compute_link_quality(clean, 1, 0, 1).evm,
            compute_link_quality(noisy, 1, 0, 1).evm);
}

TEST(RxLinkQuality, CorrelationMarginFilledForDetectedTags) {
  // End-to-end: three clean tags — every detected result must carry a
  // positive peak-minus-runner-up margin, and the margin can never exceed
  // the peak itself.
  core::SystemConfig config;
  config.max_tags = 3;
  auto deployment = rfsim::Deployment::paper_frame();
  deployment.add_tag({0.0, 0.4});
  deployment.add_tag({0.3, -0.7});
  deployment.add_tag({-0.2, 1.0});
  core::CbmaSystem system(config, deployment);
  Rng rng(11);
  const auto report = system.transmit(core::TransmitOptions{}, rng);

  std::size_t detected = 0;
  for (const auto& r : report.results) {
    if (!r.detected) continue;
    ++detected;
    EXPECT_GT(r.correlation_margin, 0.0) << "tag " << r.tag_index;
    EXPECT_LE(r.correlation_margin, r.correlation + 1e-12)
        << "tag " << r.tag_index;
  }
  EXPECT_GT(detected, 0u);
  // Probing is off: the report must not have allocated link-quality rows.
  EXPECT_TRUE(report.link_quality.empty());
}

TEST(RxLinkQuality, DecodeOutcomeLabelsAreExhaustiveAndStable) {
  // Every enumerator has a unique label; the exact strings are a wire
  // format (flight recorder, robustness benches, probe manifest) and must
  // not drift.
  const std::set<DecodeOutcome> all{
      DecodeOutcome::kOk,          DecodeOutcome::kNoFrameSync,
      DecodeOutcome::kNotDetected, DecodeOutcome::kTruncated,
      DecodeOutcome::kBadCrc,      DecodeOutcome::kIdMismatch,
  };
  EXPECT_STREQ(to_string(DecodeOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(DecodeOutcome::kNoFrameSync), "no-frame-sync");
  EXPECT_STREQ(to_string(DecodeOutcome::kNotDetected), "not-detected");
  EXPECT_STREQ(to_string(DecodeOutcome::kTruncated), "truncated");
  EXPECT_STREQ(to_string(DecodeOutcome::kBadCrc), "bad-crc");
  EXPECT_STREQ(to_string(DecodeOutcome::kIdMismatch), "id-mismatch");
  std::set<std::string> labels;
  for (const auto outcome : all) {
    const char* label = to_string(outcome);
    ASSERT_NE(label, nullptr);
    EXPECT_STRNE(label, "unknown");
    EXPECT_TRUE(labels.insert(label).second) << "duplicate label " << label;
  }
  EXPECT_EQ(labels.size(), all.size());
  // Out-of-range values still produce a printable label, never null.
  const char* bogus = to_string(static_cast<DecodeOutcome>(250));
  ASSERT_NE(bogus, nullptr);
  EXPECT_STREQ(bogus, "unknown");
}

}  // namespace
}  // namespace cbma::rx
