#include "pn/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <stdexcept>
#include <vector>

#include "pn/msequence.h"
#include "util/rng.h"

namespace cbma::pn {
namespace {

TEST(PeriodicCrossCorrelation, RejectsMismatchedLengths) {
  const PnCode a({1, 0, 1});
  const PnCode b({1, 0});
  EXPECT_THROW(periodic_cross_correlation(a, b, 0), std::invalid_argument);
}

TEST(PeriodicCrossCorrelation, RejectsShiftBeyondLength) {
  const PnCode a({1, 0, 1});
  EXPECT_THROW(periodic_cross_correlation(a, a, 3), std::invalid_argument);
}

TEST(PeriodicCrossCorrelation, SelfAtZeroIsLength) {
  const auto code = msequence_code(5);
  EXPECT_EQ(periodic_cross_correlation(code, code, 0), 31);
}

TEST(PeriodicCrossCorrelation, NegationGivesMinusLength) {
  const PnCode a({1, 0, 1, 1});
  const PnCode b({0, 1, 0, 0});
  EXPECT_EQ(periodic_cross_correlation(a, b, 0), -4);
}

TEST(PeakCrossCorrelation, ExcludesAutopeakForSelf) {
  const auto code = msequence_code(5);
  EXPECT_EQ(peak_cross_correlation(code, code), 1);  // |−1| off-peak
}

TEST(MeanRemovedTemplate, ZeroMean) {
  const auto code = msequence_code(5);
  for (const std::size_t spc : {1u, 2u, 4u}) {
    const auto tmpl = mean_removed_template(code, spc);
    EXPECT_EQ(tmpl.size(), code.length() * spc);
    double sum = 0.0;
    for (const double v : tmpl) sum += v;
    EXPECT_NEAR(sum, 0.0, 1e-9);
  }
}

TEST(MeanRemovedTemplate, RejectsZeroUpsampling) {
  EXPECT_THROW(mean_removed_template(msequence_code(3), 0), std::invalid_argument);
}

TEST(ComplexCorrelateAt, PhaseRecovered) {
  const auto code = msequence_code(5);
  const auto tmpl = mean_removed_template(code);
  const double phase = 1.1;
  std::vector<std::complex<double>> signal;
  for (const double v : tmpl) {
    signal.push_back(std::polar(1.0, phase) * v * 2.0);
  }
  const auto corr = complex_correlate_at(signal, tmpl, 0);
  EXPECT_NEAR(std::arg(corr), phase, 1e-9);
}

TEST(NormalizedComplexCorrelation, PhaseInvariantPerfectMatch) {
  const auto code = msequence_code(5);
  const auto tmpl = mean_removed_template(code);
  for (const double phase : {0.0, 0.7, 2.9, -1.3}) {
    std::vector<std::complex<double>> signal;
    for (const auto c : code.chips()) {
      signal.push_back(std::polar(3.0, phase) * static_cast<double>(c));
    }
    EXPECT_NEAR(normalized_complex_correlation_at(signal, tmpl, 0), 1.0, 1e-9)
        << "phase " << phase;
  }
}

/// The receiver's one sliding search on an interleaved window: split it,
/// fold both components, and slide the chip template over the lags
/// [begin, end).
ComplexCorrelationPeak folded_peak(std::span<const std::complex<double>> signal,
                                   std::span<const double> chip_tmpl,
                                   std::size_t spc, std::size_t begin,
                                   std::size_t end) {
  std::vector<double> re, im, fold_re, fold_im;
  split_iq(signal, re, im);
  fold_chip_sums(re, spc, fold_re);
  fold_chip_sums(im, spc, fold_im);
  return sliding_complex_peak_folded(re, im, fold_re, fold_im, chip_tmpl, spc,
                                     begin, end);
}

TEST(SlidingComplexPeak, FindsOffsetAndPhase) {
  const auto code = msequence_code(5);
  const double phase = -0.9;
  std::vector<std::complex<double>> signal(260, {0.0, 0.0});
  const std::size_t true_offset = 101;
  for (std::size_t i = 0; i < code.length(); ++i) {
    for (std::size_t s = 0; s < 2; ++s) {
      signal[true_offset + 2 * i + s] =
          std::polar(1.5, phase) * static_cast<double>(code.chip(i));
    }
  }
  const auto peak =
      folded_peak(signal, mean_removed_template(code), 2, 40, 180);
  EXPECT_EQ(peak.offset, true_offset);
  EXPECT_NEAR(peak.value, 1.0, 1e-9);
  EXPECT_NEAR(peak.phase, phase, 1e-6);
}

TEST(SlidingComplexPeak, MatchesBruteForceUnderNoise) {
  // The folded dots and the running window sums must agree with the
  // direct per-lag computation on the upsampled template, over lags that
  // span several of the search's lag blocks.
  Rng rng(5);
  const auto code = msequence_code(5);
  for (const std::size_t spc : {1u, 2u, 4u}) {
    const auto tmpl = mean_removed_template(code, spc);
    std::vector<std::complex<double>> signal(300 + tmpl.size());
    for (auto& s : signal) s = {rng.gaussian(), rng.gaussian()};

    const auto peak =
        folded_peak(signal, mean_removed_template(code), spc, 10, 200);
    double best = -1.0;
    std::size_t best_off = 0;
    for (std::size_t off = 10; off < 200; ++off) {
      const double v = normalized_complex_correlation_at(signal, tmpl, off);
      if (v > best) {
        best = v;
        best_off = off;
      }
    }
    EXPECT_EQ(peak.offset, best_off) << "spc " << spc;
    EXPECT_NEAR(peak.value, best, 1e-9) << "spc " << spc;
    EXPECT_NEAR(peak.phase,
                std::arg(complex_correlate_at(signal, tmpl, best_off)), 1e-9)
        << "spc " << spc;
  }
}

TEST(SlidingComplexPeakFolded, WindowShorterThanTemplateYieldsDefaults) {
  // A window one sample short of the upsampled template has no lag to
  // score: the peak is the default, whatever search range is asked for.
  Rng rng(12);
  const std::size_t spc = 4;
  std::vector<double> chip_tmpl(64);
  for (auto& v : chip_tmpl) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
  std::vector<double> re(chip_tmpl.size() * spc - 1), im(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    re[i] = rng.gaussian();
    im[i] = rng.gaussian();
  }
  std::vector<double> fold_re, fold_im;
  fold_chip_sums(re, spc, fold_re);
  fold_chip_sums(im, spc, fold_im);
  const auto peak = sliding_complex_peak_folded(re, im, fold_re, fold_im,
                                                chip_tmpl, spc, 0, 100);
  EXPECT_EQ(peak.offset, 0u);
  EXPECT_EQ(peak.value, 0.0);
  EXPECT_EQ(peak.phase, 0.0);
}

}  // namespace
}  // namespace cbma::pn
