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

void complex_correlate_folded(std::span<const double> fold_re,
                              std::span<const double> fold_im,
                              std::span<const double> chip_tmpl,
                              std::size_t samples_per_chip, std::size_t begin,
                              std::size_t end, std::span<double> out_re,
                              std::span<double> out_im) {
  CBMA_REQUIRE(begin <= end, "lag range inverted");
  if (begin == end) return;
  const std::size_t n_chips = chip_tmpl.size();
  CBMA_REQUIRE(n_chips > 0 && fold_re.size() == fold_im.size() &&
                   end - 1 + (n_chips - 1) * samples_per_chip < fold_re.size(),
               "template does not fit the fold at every lag");
  CBMA_REQUIRE(out_re.size() >= end - begin && out_im.size() >= end - begin,
               "dot output too short");
  simd::folded_dots(fold_re.data() + begin, fold_im.data() + begin,
                    chip_tmpl.data(), n_chips, samples_per_chip, end - begin,
                    out_re.data(), out_im.data());
}

std::complex<double> complex_correlate_split_at(std::span<const double> re,
                                                std::span<const double> im,
                                                std::span<const double> tmpl,
                                                std::size_t offset) {
  CBMA_REQUIRE(re.size() == im.size(), "split window components disagree");
  if (tmpl.empty() || offset + tmpl.size() > re.size()) return {0.0, 0.0};
  double acc_re = 0.0;
  double acc_im = 0.0;
  simd::period_dots(re.data() + offset, im.data() + offset, tmpl.data(),
                    tmpl.size(), 1, &acc_re, &acc_im);
  return {acc_re, acc_im};
}

void sliding_window_stats(std::span<const double> re, std::span<const double> im,
                          std::size_t n, std::size_t begin, std::size_t end,
                          WindowStats& out) {
  CBMA_REQUIRE(re.size() == im.size(), "split window components disagree");
  CBMA_REQUIRE(begin <= end, "lag range inverted");
  out.mean_re.resize(end - begin);
  out.mean_im.resize(end - begin);
  out.energy.resize(end - begin);
  if (begin == end) return;
  CBMA_REQUIRE(n > 0 && end - 1 + n <= re.size(), "window does not fit every lag");
  const double inv_n = 1.0 / static_cast<double>(n);
  double sum_re = 0.0;
  double sum_im = 0.0;
  double sumsq = 0.0;
  for (std::size_t i = begin; i < begin + n; ++i) {
    sum_re += re[i];
    sum_im += im[i];
    sumsq += re[i] * re[i] + im[i] * im[i];
  }
  for (std::size_t off = begin;; ++off) {
    const std::size_t j = off - begin;
    out.mean_re[j] = sum_re * inv_n;
    out.mean_im[j] = sum_im * inv_n;
    out.energy[j] = sumsq - (sum_re * sum_re + sum_im * sum_im) * inv_n;
    if (off + 1 == end) break;
    sum_re += re[off + n] - re[off];
    sum_im += im[off + n] - im[off];
    sumsq += re[off + n] * re[off + n] + im[off + n] * im[off + n] -
             re[off] * re[off] - im[off] * im[off];
  }
}

TemplateSums upsampled_template_sums(std::span<const double> chip_tmpl,
                                     std::size_t samples_per_chip) {
  double chip_norm2 = 0.0;
  double chip_sum = 0.0;
  for (const double v : chip_tmpl) {
    chip_norm2 += v * v;
    chip_sum += v;
  }
  const double spc = static_cast<double>(samples_per_chip);
  return {spc * chip_sum, spc * chip_norm2};
}

ComplexCorrelationPeak peak_from_dots(std::span<const double> dot_re,
                                      std::span<const double> dot_im,
                                      const WindowStats& stats,
                                      const TemplateSums& tmpl,
                                      std::size_t first_lag) {
  const std::size_t count = stats.energy.size();
  CBMA_REQUIRE(dot_re.size() >= count && dot_im.size() >= count &&
                   stats.mean_re.size() == count && stats.mean_im.size() == count,
               "dots and window terms disagree");
  double best = -1.0;
  std::size_t best_j = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const double dc_re = dot_re[j] - stats.mean_re[j] * tmpl.sum;
    const double dc_im = dot_im[j] - stats.mean_im[j] * tmpl.sum;
    const double denom2 = stats.energy[j] * tmpl.norm2;
    const double v =
        denom2 > 0.0 ? std::sqrt((dc_re * dc_re + dc_im * dc_im) / denom2) : 0.0;
    if (v > best) {
      best = v;
      best_j = j;
    }
  }
  if (best < 0.0) return ComplexCorrelationPeak{};
  return {first_lag + best_j, best, std::atan2(dot_im[best_j], dot_re[best_j])};
}

std::vector<double> upsampled_cross_correlation(std::span<const double> chip_a,
                                                std::span<const double> chip_b,
                                                std::size_t samples_per_chip,
                                                std::size_t max_lag) {
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  const auto spc = static_cast<std::ptrdiff_t>(samples_per_chip);
  const auto lag = static_cast<std::ptrdiff_t>(max_lag);
  // Chip shifts q in [q_lo, q_hi] reach every d: q = floor(d / spc) and
  // q + 1.
  const std::ptrdiff_t q_lo = -((lag + spc - 1) / spc);
  const std::ptrdiff_t q_hi = lag / spc + 1;
  const auto n_q = static_cast<std::size_t>(q_hi - q_lo + 1);
  // b zero-padded by n_q chips on each side, so every C(q) runs over all
  // of a without a bounds test; the inner loop over q then has independent
  // accumulators and unit stride.
  const auto pad = static_cast<std::ptrdiff_t>(n_q);
  std::vector<double> b(std::max(chip_a.size(), chip_b.size()) + 2 * n_q, 0.0);
  std::copy(chip_b.begin(), chip_b.end(), b.begin() + pad);
  std::vector<double> c(n_q, 0.0);
  double* __restrict acc = c.data();
  for (std::size_t p = 0; p < chip_a.size(); ++p) {
    const double a = chip_a[p];
    const double* __restrict bp =
        b.data() + pad + static_cast<std::ptrdiff_t>(p) + q_lo;
    for (std::size_t k = 0; k < n_q; ++k) acc[k] += a * bp[k];
  }
  std::vector<double> x(2 * max_lag + 1);
  for (std::ptrdiff_t d = -lag; d <= lag; ++d) {
    // Floor division: r in [0, spc) for negative d too.
    const std::ptrdiff_t q = d >= 0 ? d / spc : -((-d + spc - 1) / spc);
    const std::ptrdiff_t r = d - q * spc;
    const auto k = static_cast<std::size_t>(q - q_lo);
    x[static_cast<std::size_t>(d + lag)] =
        static_cast<double>(spc - r) * c[k] + static_cast<double>(r) * c[k + 1];
  }
  return x;
}

ComplexCorrelationPeak sliding_complex_peak_folded(
    std::span<const double> re, std::span<const double> im,
    std::span<const double> fold_re, std::span<const double> fold_im,
    std::span<const double> chip_tmpl, std::size_t samples_per_chip,
    std::size_t search_begin, std::size_t search_end) {
  CBMA_REQUIRE(re.size() == im.size(), "split window components disagree");
  CBMA_REQUIRE(search_begin <= search_end, "search window inverted");
  const std::size_t n = chip_tmpl.size() * samples_per_chip;
  if (n == 0 || re.size() < n) return ComplexCorrelationPeak{};
  const std::size_t end = std::min(search_end, re.size() - n + 1);
  if (search_begin >= end) return ComplexCorrelationPeak{};
  CBMA_ASSERT(fold_re.size() == re.size() - samples_per_chip + 1 &&
              fold_im.size() == fold_re.size());
  WindowStats stats;
  sliding_window_stats(re, im, n, search_begin, end, stats);
  std::vector<double> dot_re(end - search_begin);
  std::vector<double> dot_im(end - search_begin);
  complex_correlate_folded(fold_re, fold_im, chip_tmpl, samples_per_chip,
                           search_begin, end, dot_re, dot_im);
  return peak_from_dots(dot_re, dot_im, stats,
                        upsampled_template_sums(chip_tmpl, samples_per_chip),
                        search_begin);
}

}  // namespace cbma::pn
