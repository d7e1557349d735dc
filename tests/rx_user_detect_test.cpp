#include "rx/user_detect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "phy/frame.h"
#include "phy/tag.h"
#include "pn/code.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "util/probe.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

phy::Tag make_tag(std::size_t index, const std::vector<pn::PnCode>& codes) {
  phy::TagConfig cfg;
  cfg.id = static_cast<std::uint32_t>(index);
  cfg.code = codes[index];
  cfg.preamble_bits = kPreambleBits;
  return phy::Tag(cfg);
}

/// A code's spread preamble as the detector correlates it: the
/// mean-removed code per bit, sign-flipped for '0' bits, `spc` samples per
/// chip (1 gives the chip-level template of the folded search).
std::vector<double> preamble_template(const pn::PnCode& code, std::size_t spc) {
  const auto bit = pn::mean_removed_template(code, spc);
  std::vector<double> t;
  for (const auto b : phy::alternating_preamble(kPreambleBits)) {
    for (const double v : bit) t.push_back(b ? v : -v);
  }
  return t;
}

/// detect() through the unified DetectionInput entry point (the tests keep
/// interleaved IQ; the detector API takes split views).
std::vector<DetectedUser> detect_iq(const UserDetector& det,
                                    std::span<const std::complex<double>> iq,
                                    std::size_t coarse_start) {
  std::vector<double> re, im;
  pn::split_iq(iq, re, im);
  UserDetector::Scratch scratch;
  return det.detect(DetectionInput{re, im, coarse_start}, scratch);
}

/// The detection `detect_iq` reports for one code; fails the test when the
/// code was not detected.
DetectedUser hit_for(const std::vector<DetectedUser>& hits, std::size_t tag) {
  const auto it = std::find_if(hits.begin(), hits.end(), [&](const auto& h) {
    return h.tag_index == tag;
  });
  EXPECT_NE(it, hits.end()) << "code " << tag << " not detected";
  return it == hits.end() ? DetectedUser{} : *it;
}

rfsim::Channel quiet_channel() {
  rfsim::ChannelConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.chip_rate_hz = 32e6;
  cfg.noise_power_w = 0.0;
  return rfsim::Channel(cfg);
}

/// Synthesize the IQ window of a set of (tag, amplitude, delay) tuples.
std::vector<std::complex<double>> synthesize(
    const std::vector<pn::PnCode>& codes,
    const std::vector<std::tuple<std::size_t, double, double>>& active,
    cbma::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> chips;
  std::vector<rfsim::TagTransmission> txs;
  const std::vector<std::uint8_t> payload{0x42, 0x99};
  for (const auto& [idx, amp, delay] : active) {
    chips.push_back(make_tag(idx, codes).chip_sequence(payload));
  }
  std::size_t k = 0;
  for (const auto& [idx, amp, delay] : active) {
    rfsim::TagTransmission tx;
    tx.chips = chips[k++];
    tx.amplitude = amp;
    tx.phase = rng.phase();
    tx.delay_chips = 16.0 + delay;
    txs.push_back(tx);
  }
  return quiet_channel().receive(txs, rng);
}

TEST(UserDetector, RejectsBadConfig) {
  const auto codes = group_codes(2);
  UserDetectConfig cfg;
  cfg.threshold = 0.0;
  EXPECT_THROW(UserDetector(cfg, codes, kPreambleBits, kSpc), std::invalid_argument);
  cfg = UserDetectConfig{};
  cfg.relative_threshold = 1.5;
  EXPECT_THROW(UserDetector(cfg, codes, kPreambleBits, kSpc), std::invalid_argument);
  EXPECT_THROW(UserDetector(UserDetectConfig{}, {}, kPreambleBits, kSpc),
               std::invalid_argument);
  EXPECT_THROW(UserDetector(UserDetectConfig{}, codes, kPreambleBits, 0),
               std::invalid_argument);
}

TEST(UserDetector, RejectsMixedLengthCodeSet) {
  // The reach around the trigger is sized from the first code's template,
  // so every code of the group must share its length.
  auto codes = group_codes(2);
  codes.push_back(pn::make_code_set(pn::CodeFamily::kTwoNC, 1, 40).front());
  ASSERT_NE(codes.front().length(), codes.back().length());
  EXPECT_THROW(UserDetector(UserDetectConfig{}, codes, kPreambleBits, kSpc),
               std::invalid_argument);
}

TEST(UserDetector, SingleUserDetectedAtExactOffset) {
  const auto codes = group_codes(4);
  cbma::Rng rng(1);
  const auto iq = synthesize(codes, {{1, 1.0, 0.0}}, rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  // The transmitting code must be present, at the exact offset, and be the
  // strongest hit by a clear margin. (Asynchronous sidelobes of other
  // codes may clear the raw threshold — the decode+id stage rejects them.)
  ASSERT_FALSE(hits.empty());
  const auto best = *std::max_element(
      hits.begin(), hits.end(),
      [](const auto& a, const auto& b) { return a.correlation < b.correlation; });
  EXPECT_EQ(best.tag_index, 1u);
  EXPECT_EQ(best.offset_samples, 16u * kSpc);
  EXPECT_GT(best.correlation, 0.9);
  for (const auto& h : hits) {
    if (h.tag_index != 1) {
      EXPECT_LT(h.correlation, 0.6 * best.correlation);
    }
  }
}

TEST(UserDetector, RecoversCarrierPhase) {
  const auto codes = group_codes(2);
  cbma::Rng rng(2);
  // Fixed phase via direct channel call.
  const auto tag = make_tag(0, codes);
  const std::vector<std::uint8_t> pl{1, 2, 3};
  const auto chips = tag.chip_sequence(pl);
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = 0.8;
  tx.delay_chips = 16.0;
  const auto iq = quiet_channel().receive(std::span(&tx, 1), rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hit = hit_for(detect_iq(det, iq, 16 * kSpc), 0);
  EXPECT_EQ(hit.offset_samples, 16u * kSpc);
  EXPECT_NEAR(hit.phase, 0.8, 0.05);
}

TEST(UserDetector, TwoConcurrentUsersBothDetected) {
  const auto codes = group_codes(4);
  cbma::Rng rng(3);
  const auto iq = synthesize(codes, {{0, 1.0, 0.3}, {2, 1.0, 0.9}}, rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  bool has0 = false, has2 = false;
  for (const auto& h : hits) {
    has0 |= (h.tag_index == 0 && h.correlation > 0.4);
    has2 |= (h.tag_index == 2 && h.correlation > 0.4);
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has2);
}

TEST(UserDetector, AbsentCodesPeakWellBelowActiveOnes) {
  // Asynchronous sidelobes of absent codes are bounded away from the
  // aligned peaks of the transmitting codes over the whole anchor search
  // window — the separation the decode+id stage relies on.
  const auto codes = group_codes(10);
  cbma::Rng rng(4);
  const std::size_t coarse = 16 * kSpc;
  const UserDetectConfig cfg;
  const auto back = static_cast<std::size_t>(cfg.search_back_chips * kSpc);
  const auto ahead = static_cast<std::size_t>(cfg.search_ahead_chips * kSpc);
  std::vector<std::vector<double>> chip_tmpls;
  for (const auto& code : codes) chip_tmpls.push_back(preamble_template(code, 1));
  for (int trial = 0; trial < 10; ++trial) {
    const auto iq = synthesize(codes, {{3, 1.0, 0.0}, {7, 1.0, 0.5}}, rng);
    std::vector<double> re, im, fold_re, fold_im;
    pn::split_iq(iq, re, im);
    pn::fold_chip_sums(re, kSpc, fold_re);
    pn::fold_chip_sums(im, kSpc, fold_im);
    const auto peak = [&](std::size_t code) {
      return pn::sliding_complex_peak_folded(re, im, fold_re, fold_im,
                                             chip_tmpls[code], kSpc,
                                             coarse - back, coarse + ahead + 1)
          .value;
    };
    const double active = std::min(peak(3), peak(7));
    EXPECT_GT(active, 0.55);
    for (const std::size_t absent : {0u, 1u, 2u, 4u, 5u, 6u, 8u, 9u}) {
      EXPECT_LT(peak(absent), 0.8 * active)
          << "absent code " << absent << " trial " << trial;
    }
  }
}

TEST(UserDetector, AsynchronousOffsetsRecovered) {
  const auto codes = group_codes(4);
  cbma::Rng rng(5);
  // Tag 1 delayed 2.0 chips after tag 0.
  const auto iq = synthesize(codes, {{0, 1.0, 0.0}, {1, 1.0, 2.0}}, rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  EXPECT_EQ(hit_for(hits, 0).offset_samples, 16u * kSpc);
  EXPECT_EQ(hit_for(hits, 1).offset_samples, 18u * kSpc);
}

TEST(UserDetector, WeakUserSuppressedByRelativeThreshold) {
  const auto codes = group_codes(4);
  cbma::Rng rng(6);
  UserDetectConfig cfg;
  cfg.relative_threshold = 0.9;  // aggressive: only near-equal peaks pass
  // 12 dB weaker second user.
  const auto iq = synthesize(codes, {{0, 1.0, 0.0}, {1, 0.25, 0.5}}, rng);
  const UserDetector det(cfg, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tag_index, 0u);
}

TEST(UserDetector, GroupSizeReported) {
  const auto codes = group_codes(7);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  EXPECT_EQ(det.group_size(), 7u);
}

TEST(UserDetector, GoldCodesAlsoDetect) {
  const auto codes = pn::make_code_set(pn::CodeFamily::kGold, 4, 31);
  cbma::Rng rng(7);
  std::vector<std::vector<std::uint8_t>> chips;
  std::vector<rfsim::TagTransmission> txs;
  phy::TagConfig tc;
  tc.id = 2;
  tc.code = codes[2];
  tc.preamble_bits = kPreambleBits;
  const phy::Tag tag(tc);
  const std::vector<std::uint8_t> pl{9};
  const auto seq = tag.chip_sequence(pl);
  rfsim::TagTransmission tx;
  tx.chips = seq;
  tx.amplitude = 1.0;
  tx.phase = rng.phase();
  tx.delay_chips = 16.0;
  const auto iq = quiet_channel().receive(std::span(&tx, 1), rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tag_index, 2u);
}

/// Per-code |correlation| profiles over the anchor window, as the probe
/// tap records them.
using Profiles = std::vector<std::vector<double>>;

/// The detector as it ran on the whole window, before it copied and folded
/// only its reach: the bit-exact reference for detect(). Same templates,
/// one sliding_complex_peak_folded call per untaken code in code order, same
/// successive cancellation; every offset is absolute.
std::vector<DetectedUser> whole_window_detect(const UserDetectConfig& cfg,
                                              const std::vector<pn::PnCode>& codes,
                                              std::span<const double> re,
                                              std::span<const double> im,
                                              std::size_t coarse,
                                              Profiles& profiles) {
  std::vector<std::vector<double>> tmpls, chip_tmpls;
  std::vector<double> norm2;
  for (const auto& code : codes) {
    tmpls.push_back(preamble_template(code, kSpc));
    chip_tmpls.push_back(preamble_template(code, 1));
    double e = 0.0;
    for (const double v : tmpls.back()) e += v * v;
    norm2.push_back(e);
  }
  const auto spc = static_cast<double>(kSpc);
  const auto back = static_cast<std::size_t>(cfg.search_back_chips * spc);
  const auto ahead = static_cast<std::size_t>(cfg.search_ahead_chips * spc);
  const auto group = static_cast<std::size_t>(cfg.group_window_chips * spc);
  std::vector<double> res_re(re.begin(), re.end()), res_im(im.begin(), im.end());
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(res_re, kSpc, fold_re);
  pn::fold_chip_sums(res_im, kSpc, fold_im);
  const std::size_t anchor_begin = coarse > back ? coarse - back : 0;
  const std::size_t anchor_end = coarse + ahead + 1;
  profiles.assign(codes.size(), {});
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t off = anchor_begin; off < anchor_end; ++off) {
      profiles[i].push_back(std::abs(pn::complex_correlate_folded_at(
          fold_re, fold_im, chip_tmpls[i], kSpc, off)));
    }
  }
  std::vector<bool> taken(codes.size(), false);
  std::vector<DetectedUser> out;
  double anchor_corr = 0.0;
  for (std::size_t round = 0; round < codes.size(); ++round) {
    std::size_t begin = anchor_begin;
    std::size_t end = anchor_end;
    if (!out.empty()) {
      const std::size_t anchor = out.front().offset_samples;
      begin = anchor > group ? anchor - group : 0;
      end = anchor + group + 1;
    }
    DetectedUser best;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      if (taken[i]) continue;
      const auto peak = pn::sliding_complex_peak_folded(
          res_re, res_im, fold_re, fold_im, chip_tmpls[i], kSpc, begin, end);
      if (peak.value > best.correlation) {
        const double displaced = best.correlation;
        best = DetectedUser{i, peak.offset, peak.value, peak.phase, displaced};
      } else if (peak.value > best.runner_up) {
        best.runner_up = peak.value;
      }
    }
    if (best.correlation < cfg.threshold) break;
    if (out.empty()) {
      anchor_corr = best.correlation;
    } else if (best.correlation < cfg.relative_threshold * anchor_corr) {
      break;
    }
    taken[best.tag_index] = true;
    out.push_back(best);
    if (!cfg.enable_sic) continue;
    const auto& tmpl = tmpls[best.tag_index];
    const auto corr = pn::complex_correlate_folded_at(
        fold_re, fold_im, chip_tmpls[best.tag_index], kSpc, best.offset_samples);
    const double g_re = corr.real() / norm2[best.tag_index];
    const double g_im = corr.imag() / norm2[best.tag_index];
    for (std::size_t k = 0; k < tmpl.size(); ++k) {
      const std::size_t s = best.offset_samples + k;
      if (s >= res_re.size()) break;
      res_re[s] -= g_re * tmpl[k];
      res_im[s] -= g_im * tmpl[k];
    }
    // A whole refold: the reference need not be clever about the range.
    pn::fold_chip_sums(res_re, kSpc, fold_re);
    pn::fold_chip_sums(res_im, kSpc, fold_im);
  }
  return out;
}

void expect_same_users(const std::vector<DetectedUser>& got,
                       const std::vector<DetectedUser>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tag_index, want[i].tag_index) << where << " user " << i;
    EXPECT_EQ(got[i].offset_samples, want[i].offset_samples) << where;
    EXPECT_EQ(std::memcmp(&got[i].correlation, &want[i].correlation,
                          sizeof(double)),
              0)
        << where << " user " << i;
    EXPECT_EQ(std::memcmp(&got[i].phase, &want[i].phase, sizeof(double)), 0)
        << where << " user " << i;
    EXPECT_EQ(std::memcmp(&got[i].runner_up, &want[i].runner_up,
                          sizeof(double)),
              0)
        << where << " user " << i;
  }
}

/// detect() reads only its reach around the trigger; its detections — and,
/// with the probe on, its correlation-profile taps — must equal the whole
/// window's bit for bit wherever the trigger and the window end fall.
TEST(UserDetector, ReachWindowMatchesWholeWindow) {
  const auto codes = group_codes(6);
  cbma::Rng rng(11);
  // Three colliding users a few chips apart plus noise: SIC runs several
  // rounds and the group rounds search around the anchor. The weakest sits
  // on the group window's last lag, the one the reach's end must keep.
  auto iq = synthesize(codes, {{0, 1.0, 0.0}, {3, 0.7, 1.5}, {5, 0.5, 2.0}}, rng);
  for (auto& v : iq) {
    v += std::complex<double>(0.05 * rng.gaussian(), 0.05 * rng.gaussian());
  }
  std::vector<double> re, im;
  pn::split_iq(iq, re, im);
  const std::size_t start = 16 * kSpc;
  const std::size_t tmpl_len = kPreambleBits * codes[0].length() * kSpc;
  // Triggers that put the true start on the anchor search's lower and
  // upper edges send the group rounds to the reach's two ends.
  const auto back =
      static_cast<std::size_t>(UserDetectConfig{}.search_back_chips * kSpc);
  const auto ahead =
      static_cast<std::size_t>(UserDetectConfig{}.search_ahead_chips * kSpc);
  probe::set_enabled(true);
  const UserDetectConfig cfg;
  const UserDetector det(cfg, codes, kPreambleBits, kSpc);
  // Whole windows and windows cut inside the reach, so the window end
  // clamps the last lags, the fold and the cancellation.
  for (const std::size_t size :
       {re.size(), start + tmpl_len + 10, start + tmpl_len + 1, start + tmpl_len,
        start + tmpl_len - 7, start + 5}) {
    for (const std::size_t coarse :
         {std::size_t{0}, std::size_t{3}, start - ahead, start - 5, start,
          start + 9, start + back, re.size() / 2, size - 1, size, size + 100}) {
      const std::span<const double> wre(re.data(), size);
      const std::span<const double> wim(im.data(), size);
      const std::string where =
          "size " + std::to_string(size) + " coarse " + std::to_string(coarse);
      Profiles want_profiles;
      const auto want =
          whole_window_detect(cfg, codes, wre, wim, coarse, want_profiles);
      telemetry::reset();
      UserDetector::Scratch scratch;
      expect_same_users(det.detect(DetectionInput{wre, wim, coarse}, scratch),
                        want, where);
      const auto capture = telemetry::snapshot().probe;
      Profiles got_profiles(codes.size());
      for (const auto& rec : capture.taps) {
        if (rec.tap == probe::Tap::kCorrelationProfile) {
          got_profiles.at(rec.context) = rec.data;
        }
      }
      // |correlation| is never −0, so == on the values is bitwise.
      EXPECT_EQ(got_profiles, want_profiles) << where;
      if (size == re.size() && coarse == start) {
        EXPECT_EQ(want.size(), 3u) << where;  // SIC ran three rounds
      }
    }
  }
  probe::set_enabled(false);
  telemetry::reset();
}

}  // namespace
}  // namespace cbma::rx
