// Tests of the successive-interference-cancellation detection path and its
// ablation switch (DESIGN.md §4.4).
#include <gtest/gtest.h>

#include <cmath>

#include "phy/tag.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "rx/user_detect.h"
#include "util/rng.h"
#include "util/units.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;
constexpr double kLead = 16.0;

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

/// detect() through the unified DetectionInput entry point.
std::vector<DetectedUser> detect_iq(const UserDetector& det,
                                    std::span<const std::complex<double>> iq,
                                    std::size_t coarse_start) {
  std::vector<double> re, im;
  pn::split_iq(iq, re, im);
  UserDetector::Scratch scratch;
  return det.detect(DetectionInput{re, im, coarse_start}, scratch);
}

rfsim::Channel quiet_channel(double noise = 0.0) {
  rfsim::ChannelConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.chip_rate_hz = 32e6;
  cfg.noise_power_w = noise;
  return rfsim::Channel(cfg);
}

/// All `n` tags transmit with realistic amplitude spread and small random
/// offsets (the regime where detection order matters).
std::vector<std::complex<double>> crowd(const std::vector<pn::PnCode>& codes,
                                        std::size_t n, cbma::Rng& rng,
                                        double noise = 0.01) {
  std::vector<std::vector<std::uint8_t>> chips;
  const std::vector<std::uint8_t> payload{0x5A, 0xA5};
  for (std::size_t k = 0; k < n; ++k) {
    phy::TagConfig tc;
    tc.id = static_cast<std::uint32_t>(k);
    tc.code = codes[k];
    tc.preamble_bits = kPreambleBits;
    chips.push_back(phy::Tag(tc).chip_sequence(payload));
  }
  std::vector<rfsim::TagTransmission> txs;
  for (std::size_t k = 0; k < n; ++k) {
    rfsim::TagTransmission tx;
    tx.chips = chips[k];
    tx.amplitude = rng.uniform(0.4, 1.0);
    tx.phase = rng.phase();
    tx.delay_chips = kLead + rng.uniform(0.0, 1.0);
    txs.push_back(tx);
  }
  return quiet_channel(noise).receive(txs, rng);
}

std::size_t correct_detections(const UserDetector& det,
                               const std::vector<std::complex<double>>& iq,
                               std::size_t n_active) {
  const auto hits = detect_iq(det, iq, static_cast<std::size_t>(kLead) * kSpc);
  std::size_t good = 0;
  for (const auto& h : hits) {
    // Offset must land within the true jitter span (±1 chip of the lead-in,
    // with one chip of slack for the estimator).
    const auto lead = static_cast<double>(kLead * kSpc);
    if (h.tag_index < n_active &&
        std::abs(static_cast<double>(h.offset_samples) - lead) <= 2.0 * kSpc + 4) {
      ++good;
    }
  }
  return good;
}

TEST(SicDetection, EightTagCrowdFullyDetected) {
  const auto codes = group_codes(8);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  cbma::Rng rng(1);
  std::size_t total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto iq = crowd(codes, 8, rng);
    total += correct_detections(det, iq, 8);
  }
  EXPECT_GE(total, 72u);  // ≥90 % of 80
}

TEST(SicDetection, AblationLosesTagsInCrowd) {
  const auto codes = group_codes(8);
  UserDetectConfig no_sic;
  no_sic.enable_sic = false;
  const UserDetector with(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const UserDetector without(no_sic, codes, kPreambleBits, kSpc);
  cbma::Rng r1(2), r2(2);
  std::size_t with_total = 0, without_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto iq1 = crowd(codes, 8, r1);
    with_total += correct_detections(with, iq1, 8);
    const auto iq2 = crowd(codes, 8, r2);
    without_total += correct_detections(without, iq2, 8);
  }
  EXPECT_GE(with_total, without_total);  // SIC never hurts
  EXPECT_GE(with_total, 70u);
}

TEST(SicDetection, NearFarWeakUserRecoveredByCancellation) {
  const auto codes = group_codes(4);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  cbma::Rng rng(3);

  const std::vector<std::uint8_t> payload{0x11};
  std::vector<std::vector<std::uint8_t>> chips;
  for (std::size_t k = 0; k < 2; ++k) {
    phy::TagConfig tc;
    tc.id = static_cast<std::uint32_t>(k);
    tc.code = codes[k];
    tc.preamble_bits = kPreambleBits;
    chips.push_back(phy::Tag(tc).chip_sequence(payload));
  }

  int weak_found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<rfsim::TagTransmission> txs(2);
    txs[0].chips = chips[0];
    txs[0].amplitude = 1.0;
    txs[0].phase = rng.phase();
    txs[0].delay_chips = kLead;
    txs[1].chips = chips[1];
    txs[1].amplitude = 0.25;  // 12 dB down
    txs[1].phase = rng.phase();
    txs[1].delay_chips = kLead + 0.5;
    const auto iq = quiet_channel(1e-6).receive(txs, rng);
    for (const auto& h : detect_iq(det, iq, static_cast<std::size_t>(kLead) * kSpc)) {
      if (h.tag_index == 1) ++weak_found;
    }
  }
  EXPECT_GE(weak_found, 18);
}

TEST(SicDetection, SingleUserIdenticalWithAndWithoutSic) {
  // With one transmitter there is nothing to cancel: both paths must agree.
  const auto codes = group_codes(4);
  UserDetectConfig no_sic;
  no_sic.enable_sic = false;
  const UserDetector with(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const UserDetector without(no_sic, codes, kPreambleBits, kSpc);
  cbma::Rng r1(4), r2(4);
  const auto iq1 = crowd(codes, 1, r1);
  const auto iq2 = crowd(codes, 1, r2);
  const auto h1 = detect_iq(with, iq1, static_cast<std::size_t>(kLead) * kSpc);
  const auto h2 = detect_iq(without, iq2, static_cast<std::size_t>(kLead) * kSpc);
  ASSERT_FALSE(h1.empty());
  ASSERT_FALSE(h2.empty());
  EXPECT_EQ(h1.front().tag_index, h2.front().tag_index);
  EXPECT_EQ(h1.front().offset_samples, h2.front().offset_samples);
  EXPECT_NEAR(h1.front().correlation, h2.front().correlation, 1e-12);
}

TEST(SicDetection, CancellationKeepsPhaseEstimateHonest) {
  // The second-detected user's phase must match its transmit phase even
  // though it was measured on the residual.
  const auto codes = group_codes(3);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  cbma::Rng rng(5);
  const std::vector<std::uint8_t> payload{0x77};

  std::vector<std::vector<std::uint8_t>> chips;
  for (std::size_t k = 0; k < 2; ++k) {
    phy::TagConfig tc;
    tc.id = static_cast<std::uint32_t>(k);
    tc.code = codes[k];
    tc.preamble_bits = kPreambleBits;
    chips.push_back(phy::Tag(tc).chip_sequence(payload));
  }
  std::vector<rfsim::TagTransmission> txs(2);
  txs[0].chips = chips[0];
  txs[0].amplitude = 1.0;
  txs[0].phase = 0.4;
  txs[0].delay_chips = kLead;
  txs[1].chips = chips[1];
  txs[1].amplitude = 0.5;
  txs[1].phase = -1.1;
  txs[1].delay_chips = kLead + 0.75;
  const auto iq = quiet_channel(1e-8).receive(txs, rng);

  const auto hits = detect_iq(det, iq, static_cast<std::size_t>(kLead) * kSpc);
  ASSERT_EQ(hits.size(), 2u);
  for (const auto& h : hits) {
    const double want = h.tag_index == 0 ? 0.4 : -1.1;
    EXPECT_NEAR(h.phase, want, 0.15) << "tag " << h.tag_index;
  }
}

}  // namespace
}  // namespace cbma::rx
