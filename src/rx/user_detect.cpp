#include "rx/user_detect.h"

#include <algorithm>
#include <complex>

#include "phy/frame.h"
#include "pn/correlation.h"
#include "util/expect.h"
#include "util/probe.h"
#include "util/telemetry.h"

namespace cbma::rx {
namespace {

/// Upsampled template of a code's spread preamble, built per bit period
/// from the *per-code-period* mean-removed bipolar code (sign flipped for
/// '0' bits). Removing the mean per code period — rather than over the
/// whole preamble — is essential: with the footnote-2 negation convention
/// the dense '0'-bit chips are nearly identical across users, and a
/// whole-preamble mean removal would leave every code correlating with
/// every frame.
std::vector<double> preamble_template(const pn::PnCode& code, std::size_t preamble_bits,
                                      std::size_t samples_per_chip) {
  const auto bits = phy::alternating_preamble(preamble_bits);
  const auto bit_template = pn::mean_removed_template(code, samples_per_chip);
  std::vector<double> tmpl;
  tmpl.reserve(bits.size() * bit_template.size());
  for (const auto bit : bits) {
    for (const double v : bit_template) tmpl.push_back(bit ? v : -v);
  }
  return tmpl;
}

}  // namespace

UserDetector::UserDetector(UserDetectConfig config, std::span<const pn::PnCode> codes,
                           std::size_t preamble_bits, std::size_t samples_per_chip)
    : config_(config), samples_per_chip_(samples_per_chip) {
  CBMA_REQUIRE(!codes.empty(), "detector needs at least one code");
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  CBMA_REQUIRE(config_.threshold > 0.0 && config_.threshold < 1.0,
               "threshold must be in (0,1)");
  CBMA_REQUIRE(config_.relative_threshold >= 0.0 && config_.relative_threshold <= 1.0,
               "relative threshold must be in [0,1]");
  CBMA_REQUIRE(config_.search_back_chips >= 0.0 && config_.search_ahead_chips >= 0.0,
               "search window must be non-negative");
  CBMA_REQUIRE(config_.group_window_chips >= 0.0,
               "group window must be non-negative");
  for (const auto& code : codes) {
    CBMA_REQUIRE(code.length() == codes.front().length(),
                 "codes must share one length");
  }
  templates_.reserve(codes.size());
  chip_templates_.reserve(codes.size());
  tmpl_norm2_.reserve(codes.size());
  for (const auto& code : codes) {
    templates_.push_back(preamble_template(code, preamble_bits, samples_per_chip));
    chip_templates_.push_back(preamble_template(code, preamble_bits, 1));
    double e = 0.0;
    for (const double v : templates_.back()) e += v * v;
    tmpl_norm2_.push_back(e);
    tmpl_sums_.push_back(
        pn::upsampled_template_sums(chip_templates_.back(), samples_per_chip));
  }
  // X_bk(d) = X_kb(−d): one correlation per unordered pair fills both rows.
  const std::size_t k_codes = codes.size();
  cross_lag_ = 2 * static_cast<std::size_t>(config_.group_window_chips *
                                            static_cast<double>(samples_per_chip));
  const std::size_t width = 2 * cross_lag_ + 1;
  cross_.assign(k_codes * k_codes * width, 0.0);
  for (std::size_t k = 0; k < k_codes; ++k) {
    for (std::size_t b = k + 1; b < k_codes; ++b) {
      const auto x = pn::upsampled_cross_correlation(
          chip_templates_[k], chip_templates_[b], samples_per_chip, cross_lag_);
      std::copy(x.begin(), x.end(), cross_.begin() + (k * k_codes + b) * width);
      std::copy(x.rbegin(), x.rend(), cross_.begin() + (b * k_codes + k) * width);
    }
  }
}

std::vector<DetectedUser> UserDetector::detect(const DetectionInput& input,
                                               Scratch& scratch) const {
  CBMA_REQUIRE(input.re.size() == input.im.size(),
               "split window components disagree");
  const auto spc = static_cast<double>(samples_per_chip_);
  const auto back = static_cast<std::size_t>(config_.search_back_chips * spc);
  const auto ahead = static_cast<std::size_t>(config_.search_ahead_chips * spc);
  const auto group_span =
      static_cast<std::size_t>(config_.group_window_chips * spc);

  // The reach: the only samples any round reads. The anchor round searches
  // lags [coarse − back, coarse + ahead], a group round lags within ± group
  // of an anchor from that range, and every lag reads one template length
  // onward. The reach ends one template past the last lag any round can
  // search, coarse + ahead + group (or at the window's end). That makes
  // the one size-dependent clamp downstream, the last lag whose template
  // fits, resolve as on the whole window, so the detections are the whole
  // window's, shifted by `lo`.
  const std::size_t size = input.re.size();
  const std::size_t coarse = input.coarse_start;
  const std::size_t lo =
      std::min(coarse > back + group_span ? coarse - back - group_span : 0, size);
  const std::size_t hi =
      std::min(size, coarse + ahead + group_span + templates_.front().size());
  const auto re = input.re.subspan(lo, hi - lo);
  const auto im = input.im.subspan(lo, hi - lo);
  const std::size_t coarse_start = coarse - lo;

  // The residual starts as the reach; the fold is the reach's as received.
  const std::size_t k_codes = templates_.size();
  const std::size_t n = templates_.front().size();
  scratch.residual_re.assign(re.begin(), re.end());
  scratch.residual_im.assign(im.begin(), im.end());
  pn::fold_chip_sums(re, samples_per_chip_, scratch.fold_re);
  pn::fold_chip_sums(im, samples_per_chip_, scratch.fold_im);
  scratch.taken.assign(k_codes, false);

  // Lags whose template fits the reach: [0, fit_end). The anchor round
  // scores [a0, a1); the dot store spans [s0, a1 + group_span), which holds
  // every group window around an anchor from [a0, a1).
  const std::size_t fit_end = re.size() >= n ? re.size() - n + 1 : 0;
  const std::size_t a0 = coarse_start > back ? coarse_start - back : 0;
  const std::size_t a1 = std::max(a0, std::min(coarse_start + ahead + 1, fit_end));
  const std::size_t s0 = a0 > group_span ? a0 - group_span : 0;
  const std::size_t width = a1 + group_span - s0;
  scratch.dot_re.resize(k_codes * width);
  scratch.dot_im.resize(k_codes * width);
  const auto dots = [&](std::vector<double>& store, std::size_t code,
                        std::size_t begin, std::size_t end) {
    return std::span<double>(store).subspan(code * width + begin - s0, end - begin);
  };
  const auto fill_dots = [&](std::size_t code, std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    pn::complex_correlate_folded(scratch.fold_re, scratch.fold_im,
                                 chip_templates_[code], samples_per_chip_, begin,
                                 end, dots(scratch.dot_re, code, begin, end),
                                 dots(scratch.dot_im, code, begin, end));
  };
  for (std::size_t i = 0; i < k_codes; ++i) fill_dots(i, a0, a1);
  pn::sliding_window_stats(re, im, n, a0, a1, scratch.stats);

  // Signal-probe tap: every code's |correlation| across the anchor search
  // window, on the window *before* any cancellation — the per-code profile
  // a human compares against the thresholds when a detection goes wrong.
  // Lags whose template does not fit read 0. Strictly probe-gated: the hot
  // path neither allocates nor computes this.
  if (probe::enabled()) {
    std::vector<double> profile;
    profile.reserve(coarse_start + ahead + 1 - a0);
    for (std::size_t i = 0; i < k_codes; ++i) {
      profile.clear();
      for (std::size_t off = a0; off < coarse_start + ahead + 1; ++off) {
        const std::size_t j = i * width + off - s0;
        profile.push_back(off < a1 ? std::abs(std::complex<double>(
                                         scratch.dot_re[j], scratch.dot_im[j]))
                                   : 0.0);
      }
      probe::record_tap(probe::Tap::kCorrelationProfile,
                        static_cast<std::uint32_t>(i), profile);
    }
  }

  std::vector<DetectedUser> out;
  double anchor_correlation = 0.0;
  std::size_t g0 = 0;  // the group window, [g0, g1), once the anchor is known
  std::size_t g1 = 0;
  for (std::size_t round = 0; round < k_codes; ++round) {
    // Score window: free around the coarse trigger for the anchor, the
    // group window around the anchor afterwards, rescored on the residual.
    const std::size_t begin = out.empty() ? a0 : g0;
    const std::size_t end = out.empty() ? a1 : g1;
    if (!out.empty()) {
      pn::sliding_window_stats(scratch.residual_re, scratch.residual_im, n, g0,
                               g1, scratch.stats);
    }
    telemetry::count(telemetry::Counter::kRxDetectNaiveBatches);
    DetectedUser best;
    for (std::size_t i = 0; i < k_codes; ++i) {
      if (scratch.taken[i]) continue;
      const auto peak =
          pn::peak_from_dots(dots(scratch.dot_re, i, begin, end),
                             dots(scratch.dot_im, i, begin, end), scratch.stats,
                             tmpl_sums_[i], begin);
      if (peak.value > best.correlation) {
        // The displaced leader becomes the runner-up this code had to beat.
        const double displaced = best.correlation;
        best = DetectedUser{i, peak.offset, peak.value, peak.phase, displaced};
      } else if (peak.value > best.runner_up) {
        best.runner_up = peak.value;
      }
    }
    if (best.correlation < config_.threshold) break;
    if (out.empty()) {
      anchor_correlation = best.correlation;
      // The group window's lags outside the anchor round's, scored on the
      // fold as received before anything is cancelled.
      g0 = best.offset_samples > group_span ? best.offset_samples - group_span : 0;
      g1 = std::min(best.offset_samples + group_span + 1, fit_end);
      for (std::size_t i = 0; i < k_codes; ++i) {
        if (i == best.tag_index) continue;
        fill_dots(i, g0, std::min(a0, g1));
        fill_dots(i, std::max(a1, g0), g1);
      }
    } else if (best.correlation < config_.relative_threshold * anchor_correlation) {
      break;
    }
    scratch.taken[best.tag_index] = true;
    out.push_back(best);
    if (config_.enable_sic) cancel(best, g0, g1, s0, width, scratch);
  }
  for (auto& user : out) user.offset_samples += lo;
  return out;
}

void UserDetector::cancel(const DetectedUser& user, std::size_t g0, std::size_t g1,
                          std::size_t s0, std::size_t width, Scratch& scratch) const {
  // The complex gain is the least-squares fit of the template at the
  // detected offset; its dot is the stored one, current for this residual.
  const std::size_t b = user.tag_index;
  const std::size_t o = user.offset_samples;
  const std::size_t k_codes = templates_.size();
  const auto& tmpl = templates_[b];
  const double gain_re = scratch.dot_re[b * width + o - s0] / tmpl_norm2_[b];
  const double gain_im = scratch.dot_im[b * width + o - s0] / tmpl_norm2_[b];
  // A detected offset's template fits the reach, so the cancellation is
  // never cut short and the update below is exact in real arithmetic.
  CBMA_ASSERT(o + tmpl.size() <= scratch.residual_re.size());
  for (std::size_t k = 0; k < tmpl.size(); ++k) {
    scratch.residual_re[o + k] -= gain_re * tmpl[k];
    scratch.residual_im[o + k] -= gain_im * tmpl[k];
  }
  // Every untaken code's dot at lag L drops by gain · X_kb(L − o); both
  // lie in the group window, so |L − o| ≤ cross_lag_. Where the update
  // cancels almost all of the dot (a dominant user just removed), its
  // rounding error would dominate what is left: recompute that lag on the
  // residual instead (snippet 3's rule: never keep a difference of nearly
  // equal values).
  constexpr double kGuard2 = 0x1p-40;  // (2^-20)^2 on |dot|^2
  const std::size_t x_width = 2 * cross_lag_ + 1;
  for (std::size_t k = 0; k < k_codes; ++k) {
    if (scratch.taken[k]) continue;
    const double* x = cross_.data() + (k * k_codes + b) * x_width;
    for (std::size_t lag = g0; lag < g1; ++lag) {
      const std::size_t j = k * width + lag - s0;
      const double x_lag = x[cross_lag_ + lag - o];
      const double before_re = scratch.dot_re[j];
      const double before_im = scratch.dot_im[j];
      const double after_re = before_re - gain_re * x_lag;
      const double after_im = before_im - gain_im * x_lag;
      if (after_re * after_re + after_im * after_im <
          kGuard2 * (before_re * before_re + before_im * before_im)) {
        const auto direct = pn::complex_correlate_split_at(
            scratch.residual_re, scratch.residual_im, templates_[k], lag);
        scratch.dot_re[j] = direct.real();
        scratch.dot_im[j] = direct.imag();
      } else {
        scratch.dot_re[j] = after_re;
        scratch.dot_im[j] = after_im;
      }
    }
  }
}

}  // namespace cbma::rx
