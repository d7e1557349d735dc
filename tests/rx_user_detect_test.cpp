#include "rx/user_detect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

/// The profile tap's reference: each code's |folded dot| at every lag of the
/// anchor window, one complex_correlate_folded_at per lag on the window as
/// received (0 where the template does not fit).
Profiles anchor_profiles(const UserDetectConfig& cfg,
                         const std::vector<pn::PnCode>& codes, std::size_t spc,
                         std::span<const double> re, std::span<const double> im,
                         std::size_t coarse) {
  const auto back = static_cast<std::size_t>(cfg.search_back_chips * spc);
  const auto ahead = static_cast<std::size_t>(cfg.search_ahead_chips * spc);
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, spc, fold_re);
  pn::fold_chip_sums(im, spc, fold_im);
  Profiles profiles(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto chip_tmpl = preamble_template(codes[i], 1);
    for (std::size_t off = coarse > back ? coarse - back : 0;
         off < coarse + ahead + 1; ++off) {
      profiles[i].push_back(std::abs(
          pn::complex_correlate_folded_at(fold_re, fold_im, chip_tmpl, spc, off)));
    }
  }
  return profiles;
}

/// The detector as it ran before SIC rounds updated stored correlations:
/// every round re-searches each untaken code over its window on the actual
/// residual, here lag by lag with the per-lag reference definitions
/// (normalized_complex_correlation_at for the score, complex_correlate_at
/// for the phase). The cancellation gain is fitted as it always was, from
/// the folded dot on a fold of the current residual, so after the anchor's
/// cancellation this residual equals detect()'s bit for bit. Whole window,
/// absolute offsets.
std::vector<DetectedUser> reference_detect(const UserDetectConfig& cfg,
                                           const std::vector<pn::PnCode>& codes,
                                           std::size_t spc,
                                           std::span<const double> re,
                                           std::span<const double> im,
                                           std::size_t coarse) {
  std::vector<std::vector<double>> tmpls, chip_tmpls;
  std::vector<double> norm2;
  for (const auto& code : codes) {
    tmpls.push_back(preamble_template(code, spc));
    chip_tmpls.push_back(preamble_template(code, 1));
    double e = 0.0;
    for (const double v : tmpls.back()) e += v * v;
    norm2.push_back(e);
  }
  const std::size_t n = tmpls.front().size();
  const auto back = static_cast<std::size_t>(cfg.search_back_chips * spc);
  const auto ahead = static_cast<std::size_t>(cfg.search_ahead_chips * spc);
  const auto group = static_cast<std::size_t>(cfg.group_window_chips * spc);
  std::vector<double> res_re(re.begin(), re.end()), res_im(im.begin(), im.end());
  std::vector<bool> taken(codes.size(), false);
  std::vector<DetectedUser> out;
  double anchor_corr = 0.0;
  for (std::size_t round = 0; round < codes.size(); ++round) {
    std::size_t begin = coarse > back ? coarse - back : 0;
    std::size_t end = coarse + ahead + 1;
    if (!out.empty()) {
      const std::size_t anchor = out.front().offset_samples;
      begin = anchor > group ? anchor - group : 0;
      end = anchor + group + 1;
    }
    end = std::min(end, res_re.size() >= n ? res_re.size() - n + 1 : 0);
    std::vector<std::complex<double>> residual(res_re.size());
    for (std::size_t i = 0; i < residual.size(); ++i) {
      residual[i] = {res_re[i], res_im[i]};
    }
    DetectedUser best;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      if (taken[i]) continue;
      double value = 0.0;
      std::size_t offset = 0;
      for (std::size_t off = begin, first = 1; off < end; ++off, first = 0) {
        const double v =
            pn::normalized_complex_correlation_at(residual, tmpls[i], off);
        if (first || v > value) {
          value = v;
          offset = off;
        }
      }
      const double phase =
          std::arg(pn::complex_correlate_at(residual, tmpls[i], offset));
      if (value > best.correlation) {
        const double displaced = best.correlation;
        best = DetectedUser{i, offset, value, phase, displaced};
      } else if (value > best.runner_up) {
        best.runner_up = value;
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
    std::vector<double> fold_re, fold_im;
    pn::fold_chip_sums(res_re, spc, fold_re);
    pn::fold_chip_sums(res_im, spc, fold_im);
    const auto corr = pn::complex_correlate_folded_at(
        fold_re, fold_im, chip_tmpls[best.tag_index], spc, best.offset_samples);
    const double g_re = corr.real() / norm2[best.tag_index];
    const double g_im = corr.imag() / norm2[best.tag_index];
    const auto& tmpl = tmpls[best.tag_index];
    for (std::size_t k = 0; k < n; ++k) {
      res_re[best.offset_samples + k] -= g_re * tmpl[k];
      res_im[best.offset_samples + k] -= g_im * tmpl[k];
    }
  }
  return out;
}

/// Bitwise equality of two detection lists.
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

/// Same codes and offsets; correlation, runner-up and phase within 1e-9
/// relative (the phase as an angle, so ±π count as one).
void expect_close_users(const std::vector<DetectedUser>& got,
                        const std::vector<DetectedUser>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string who = where + " user " + std::to_string(i);
    EXPECT_EQ(got[i].tag_index, want[i].tag_index) << who;
    EXPECT_EQ(got[i].offset_samples, want[i].offset_samples) << who;
    EXPECT_TRUE(near(got[i].correlation, want[i].correlation))
        << who << ": " << got[i].correlation << " vs " << want[i].correlation;
    EXPECT_TRUE(near(got[i].runner_up, want[i].runner_up))
        << who << ": " << got[i].runner_up << " vs " << want[i].runner_up;
    const double turn =
        std::abs(std::remainder(got[i].phase - want[i].phase, 2.0 * M_PI));
    EXPECT_LE(turn, 1e-9 * std::max(1.0, std::abs(want[i].phase)))
        << who << ": " << got[i].phase << " vs " << want[i].phase;
  }
}

/// detect() reads only its reach around the trigger: a window cut down to
/// the reach, or one whose samples outside it are garbage, detects the same
/// users bit for bit, and so does the correlation-profile tap. Against the
/// per-lag reference on the whole window the detections agree to 1e-9.
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
  const UserDetectConfig cfg;
  const auto back = static_cast<std::size_t>(cfg.search_back_chips * kSpc);
  const auto ahead = static_cast<std::size_t>(cfg.search_ahead_chips * kSpc);
  const auto group = static_cast<std::size_t>(cfg.group_window_chips * kSpc);
  probe::set_enabled(true);
  const UserDetector det(cfg, codes, kPreambleBits, kSpc);
  // Triggers that put the true start on the anchor search's lower and
  // upper edges send the group rounds to the reach's two ends. Whole
  // windows and windows cut inside the reach, so the window end clamps the
  // last lags.
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
      telemetry::reset();
      UserDetector::Scratch scratch;
      const auto got = det.detect(DetectionInput{wre, wim, coarse}, scratch);
      const auto capture = telemetry::snapshot().probe;
      Profiles got_profiles(codes.size());
      for (const auto& rec : capture.taps) {
        if (rec.tap == probe::Tap::kCorrelationProfile) {
          got_profiles.at(rec.context) = rec.data;
        }
      }
      // |correlation| is never −0, so == on the values is bitwise.
      EXPECT_EQ(got_profiles, anchor_profiles(cfg, codes, kSpc, wre, wim, coarse))
          << where;
      expect_close_users(got, reference_detect(cfg, codes, kSpc, wre, wim, coarse),
                         where);
      if (size == re.size() && coarse == start) {
        EXPECT_EQ(got.size(), 3u) << where;  // SIC ran three rounds
      }

      // The reach, [lo, hi): DESIGN.md §10.
      const std::size_t lo =
          std::min(coarse > back + group ? coarse - back - group : 0, size);
      const std::size_t hi = std::min(size, coarse + ahead + group + tmpl_len);
      std::vector<double> cut_re(re.begin() + lo, re.begin() + hi);
      std::vector<double> cut_im(im.begin() + lo, im.begin() + hi);
      auto cut = det.detect(DetectionInput{cut_re, cut_im, coarse - lo}, scratch);
      for (auto& user : cut) user.offset_samples += lo;
      expect_same_users(cut, got, where + " cut to the reach");
      std::vector<double> junk_re(wre.begin(), wre.end());
      std::vector<double> junk_im(wim.begin(), wim.end());
      for (std::size_t i = 0; i < size; ++i) {
        if (i < lo || i >= hi) {
          junk_re[i] = 1e3 * rng.gaussian();
          junk_im[i] = 1e3 * rng.gaussian();
        }
      }
      expect_same_users(det.detect(DetectionInput{junk_re, junk_im, coarse}, scratch),
                        got, where + " with junk outside the reach");
    }
  }
  probe::set_enabled(false);
  telemetry::reset();
}

/// Randomized collisions against the per-lag reference: 2–10 users with
/// random codes, offsets, gains and noise at 1, 2 and 4 samples per chip,
/// some windows cut so the group window's last lags do not fit, some
/// triggers so early that the search windows clip at the window's start.
/// One trial in four has a dominant user whose cancellation leaves dots a
/// millionth of their size or less, where the detector must recompute the
/// lag on the residual rather than keep the updated difference.
TEST(UserDetector, SicUpdatesMatchPerLagReference) {
  const auto codes = group_codes(10);
  cbma::Rng rng(31);
  const std::vector<std::uint8_t> payload{0x5A, 0xC3, 0x0F};
  std::size_t guard_trials = 0;
  std::size_t cut_trials = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t spc = std::size_t{1} << (trial % 3);  // 1, 2, 4
    const bool dominant = trial % 4 == 3;
    const bool cut = trial % 5 == 1;
    UserDetectConfig cfg;
    if (dominant) cfg.relative_threshold = 0.1;
    const auto back = static_cast<std::size_t>(cfg.search_back_chips * spc);
    const auto ahead = static_cast<std::size_t>(cfg.search_ahead_chips * spc);
    const auto group = static_cast<std::size_t>(cfg.group_window_chips * spc);
    const std::size_t n = kPreambleBits * codes[0].length() * spc;

    std::vector<std::size_t> order(codes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
    }
    const auto users = static_cast<std::size_t>(rng.uniform_int(2, 10));
    const std::size_t base =
        trial % 6 == 0 ? static_cast<std::size_t>(rng.uniform_int(0, 3))
                       : (20 + static_cast<std::size_t>(rng.uniform_int(0, 20))) * spc;
    std::size_t size = base + group + (2 + codes[0].length() * 48) * spc;
    if (cut) {
      size = base + n + static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<int>(2 * group)));
    }
    const double noise = dominant ? 1e-12 : rng.uniform(0.01, 0.3);
    std::vector<double> re(size), im(size);
    for (std::size_t i = 0; i < size; ++i) {
      re[i] = noise * rng.gaussian();
      im[i] = noise * rng.gaussian();
    }
    for (std::size_t u = 0; u < users; ++u) {
      const double amp = rng.uniform(0.3, 1.0) * (dominant ? 1e-10 : 1.0);
      const std::complex<double> gain = std::polar(amp, rng.phase());
      const std::size_t offset =
          base + static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(group)));
      if (dominant && u == 0) {
        // The dominant user sends exactly its preamble template, so its
        // cancellation leaves only the faint users (and rounding) behind.
        const auto tmpl = preamble_template(codes[order[u]], spc);
        const std::complex<double> g = gain * 1e10;
        for (std::size_t k = 0; k < n && offset + k < size; ++k) {
          re[offset + k] += g.real() * tmpl[k];
          im[offset + k] += g.imag() * tmpl[k];
        }
        continue;
      }
      const auto chips = make_tag(order[u], codes).chip_sequence(payload);
      for (std::size_t c = 0; c < chips.size(); ++c) {
        for (std::size_t k = 0; k < spc; ++k) {
          const std::size_t s = offset + c * spc + k;
          if (s >= size || chips[c] == 0) continue;
          re[s] += gain.real();
          im[s] += gain.imag();
        }
      }
    }
    const std::size_t coarse =
        base + back - static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<int>(std::min(back + ahead, base + back))));
    const std::string where = "trial " + std::to_string(trial) + " spc " +
                              std::to_string(spc) + " users " +
                              std::to_string(users);
    const UserDetector det(cfg, codes, kPreambleBits, spc);
    UserDetector::Scratch scratch;
    const auto got = det.detect(DetectionInput{re, im, coarse}, scratch);
    expect_close_users(got, reference_detect(cfg, codes, spc, re, im, coarse),
                       where);
    guard_trials += dominant && got.size() > 1;
    cut_trials += cut && !got.empty();
  }
  // The guarded and the clipped cases must actually have run SIC rounds.
  EXPECT_GE(guard_trials, 6u);
  EXPECT_GE(cut_trials, 4u);
}

}  // namespace
}  // namespace cbma::rx
