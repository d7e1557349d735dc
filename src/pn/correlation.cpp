#include "pn/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "pn/simd.h"
#include "util/expect.h"

namespace cbma::pn {

int periodic_cross_correlation(const PnCode& a, const PnCode& b, std::size_t tau) {
  CBMA_REQUIRE(a.length() == b.length(), "codes must share a length");
  const std::size_t len = a.length();
  CBMA_REQUIRE(tau < len, "shift exceeds code length");
  int acc = 0;
  for (std::size_t i = 0; i < len; ++i) {
    // Bipolar product: equal chips contribute +1, different chips −1.
    acc += (a.chip(i) == b.chip((i + tau) % len)) ? 1 : -1;
  }
  return acc;
}

std::vector<int> periodic_cross_correlation_all(const PnCode& a, const PnCode& b) {
  std::vector<int> out(a.length());
  for (std::size_t tau = 0; tau < a.length(); ++tau) {
    out[tau] = periodic_cross_correlation(a, b, tau);
  }
  return out;
}

int peak_cross_correlation(const PnCode& a, const PnCode& b) {
  const bool same = (a == b);
  int peak = 0;
  for (std::size_t tau = same ? 1 : 0; tau < a.length(); ++tau) {
    peak = std::max(peak, std::abs(periodic_cross_correlation(a, b, tau)));
  }
  return peak;
}

std::vector<double> mean_removed_template(const PnCode& code,
                                          std::size_t samples_per_chip) {
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  const auto& bip = code.bipolar();
  const double mean =
      std::accumulate(bip.begin(), bip.end(), 0.0) / static_cast<double>(bip.size());
  std::vector<double> tmpl;
  tmpl.reserve(bip.size() * samples_per_chip);
  for (const double v : bip) {
    for (std::size_t s = 0; s < samples_per_chip; ++s) tmpl.push_back(v - mean);
  }
  return tmpl;
}

std::complex<double> complex_correlate_at(std::span<const std::complex<double>> signal,
                                          std::span<const double> tmpl,
                                          std::size_t offset) {
  if (offset + tmpl.size() > signal.size()) return {0.0, 0.0};
  std::complex<double> acc{0.0, 0.0};
  const std::complex<double>* s = signal.data() + offset;
  for (std::size_t i = 0; i < tmpl.size(); ++i) acc += s[i] * tmpl[i];
  return acc;
}

double normalized_complex_correlation_at(std::span<const std::complex<double>> signal,
                                         std::span<const double> tmpl,
                                         std::size_t offset) {
  if (offset + tmpl.size() > signal.size() || tmpl.empty()) return 0.0;
  const std::complex<double>* s = signal.data() + offset;
  std::complex<double> sum{0.0, 0.0};
  for (std::size_t i = 0; i < tmpl.size(); ++i) sum += s[i];
  const std::complex<double> mean = sum / static_cast<double>(tmpl.size());
  std::complex<double> dot{0.0, 0.0};
  double s_norm2 = 0.0;
  double t_norm2 = 0.0;
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    const std::complex<double> sv = s[i] - mean;
    dot += sv * tmpl[i];
    s_norm2 += std::norm(sv);
    t_norm2 += tmpl[i] * tmpl[i];
  }
  const double denom = std::sqrt(s_norm2 * t_norm2);
  if (denom <= 0.0) return 0.0;
  return std::abs(dot) / denom;
}

void split_iq(std::span<const std::complex<double>> iq, std::vector<double>& re,
              std::vector<double>& im) {
  re.resize(iq.size());
  im.resize(iq.size());
  for (std::size_t i = 0; i < iq.size(); ++i) {
    re[i] = iq[i].real();
    im[i] = iq[i].imag();
  }
}

void fold_chip_sums(std::span<const double> x, std::size_t samples_per_chip,
                    std::vector<double>& out) {
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  if (x.size() < samples_per_chip) {
    out.clear();
    return;
  }
  out.resize(x.size() - samples_per_chip + 1);
  refold_chip_sums(x, samples_per_chip, 0, out.size(), out);
}

void refold_chip_sums(std::span<const double> x, std::size_t samples_per_chip,
                      std::size_t begin, std::size_t end, std::vector<double>& out) {
  // Direct per-entry sums (not a running window) so refolding a subrange
  // reproduces exactly what a full fold computes — no accumulated drift.
  // simd::fold_sums rejects an `out` that overlaps `x`.
  end = std::min(end, out.size());
  if (begin >= end) return;
  simd::fold_sums(x.data() + begin, end - begin, samples_per_chip,
                  out.data() + begin);
}

std::complex<double> complex_correlate_folded_at(std::span<const double> fold_re,
                                                 std::span<const double> fold_im,
                                                 std::span<const double> chip_tmpl,
                                                 std::size_t samples_per_chip,
                                                 std::size_t offset) {
  const std::size_t n_chips = chip_tmpl.size();
  if (n_chips == 0) return {0.0, 0.0};
  const std::size_t last = offset + (n_chips - 1) * samples_per_chip;
  if (last >= fold_re.size()) return {0.0, 0.0};
  double acc_re = 0.0;
  double acc_im = 0.0;
  simd::folded_dots(fold_re.data() + offset, fold_im.data() + offset,
                    chip_tmpl.data(), n_chips, samples_per_chip, 1, &acc_re,
                    &acc_im);
  return {acc_re, acc_im};
}

ComplexCorrelationPeak sliding_complex_peak_folded(
    std::span<const double> re, std::span<const double> im,
    std::span<const double> fold_re, std::span<const double> fold_im,
    std::span<const double> chip_tmpl, std::size_t samples_per_chip,
    std::size_t search_begin, std::size_t search_end) {
  CBMA_REQUIRE(re.size() == im.size(), "split window components disagree");
  CBMA_REQUIRE(search_begin <= search_end, "search window inverted");
  ComplexCorrelationPeak best;
  best.value = -1.0;
  const std::size_t n_chips = chip_tmpl.size();
  const std::size_t n = n_chips * samples_per_chip;
  if (n == 0 || re.size() < n) return ComplexCorrelationPeak{};
  const std::size_t end = std::min({search_end, re.size() - n + 1});
  if (search_begin >= end) return ComplexCorrelationPeak{};
  CBMA_ASSERT(fold_re.size() == re.size() - samples_per_chip + 1 &&
              fold_im.size() == fold_re.size());

  // Sample-level template norms from the chip template: each chip value
  // repeats samples_per_chip times.
  double t_chip_norm2 = 0.0;
  double t_chip_sum = 0.0;
  for (const double v : chip_tmpl) {
    t_chip_norm2 += v * v;
    t_chip_sum += v;
  }
  const double spc = static_cast<double>(samples_per_chip);
  const double t_norm2 = spc * t_chip_norm2;
  const double t_sum = spc * t_chip_sum;
  const double inv_n = 1.0 / static_cast<double>(n);

  // The window mean/energy terms are shared across lags: keep them as
  // running sums; only the dot product runs on the folded layout.
  double s_sum_re = 0.0;
  double s_sum_im = 0.0;
  double s_sumsq = 0.0;
  for (std::size_t i = search_begin; i < search_begin + n; ++i) {
    s_sum_re += re[i];
    s_sum_im += im[i];
    s_sumsq += re[i] * re[i] + im[i] * im[i];
  }

  // The lag dots fill in stack blocks through simd::folded_dots (four lags
  // interleaved, each lag's sum in ascending chip order); the
  // normalization then walks the block's lags in order.
  constexpr std::size_t kLagBlock = 64;
  double block_re[kLagBlock];
  double block_im[kLagBlock];
  for (std::size_t off = search_begin; off < end; ++off) {
    const std::size_t j = (off - search_begin) % kLagBlock;
    if (j == 0) {
      simd::folded_dots(fold_re.data() + off, fold_im.data() + off,
                        chip_tmpl.data(), n_chips, samples_per_chip,
                        std::min(kLagBlock, end - off), block_re, block_im);
    }
    const double dot_re = block_re[j];
    const double dot_im = block_im[j];
    const double mean_re = s_sum_re * inv_n;
    const double mean_im = s_sum_im * inv_n;
    const double dc_re = dot_re - mean_re * t_sum;
    const double dc_im = dot_im - mean_im * t_sum;
    const double s_norm2 =
        s_sumsq - (s_sum_re * s_sum_re + s_sum_im * s_sum_im) * inv_n;
    const double denom2 = s_norm2 * t_norm2;
    const double v =
        denom2 > 0.0 ? std::sqrt((dc_re * dc_re + dc_im * dc_im) / denom2) : 0.0;
    if (v > best.value) {
      best.value = v;
      best.offset = off;
    }
    if (off + n < re.size()) {
      s_sum_re += re[off + n] - re[off];
      s_sum_im += im[off + n] - im[off];
      s_sumsq += re[off + n] * re[off + n] + im[off + n] * im[off + n] -
                 re[off] * re[off] - im[off] * im[off];
    }
  }
  if (best.value < 0.0) return ComplexCorrelationPeak{};
  const auto peak_corr = complex_correlate_folded_at(fold_re, fold_im, chip_tmpl,
                                                     samples_per_chip, best.offset);
  best.phase = std::atan2(peak_corr.imag(), peak_corr.real());
  return best;
}

}  // namespace cbma::pn
