// Correlation kernels used by the receiver's user detector and decoder, and
// by the code-family quality tests.
//
// Two domains:
//  * code-vs-code correlations on binary chips (periodic / aperiodic), used
//    to validate family properties (Gold's three-valued cross-correlation,
//    2NC orthogonality);
//  * complex-baseband-vs-template correlation, the receiver's coherent
//    detector and decoder. Templates are mean-removed so the unipolar OOK
//    chips and constant offsets from other users do not bias decisions
//    (this is the "correlation-based detector" of §V-B). The one sliding
//    search runs on the split, chip-folded window: raw template dots
//    (complex_correlate_folded) and code-independent window terms
//    (sliding_window_stats) combine into the per-lag score
//    (peak_from_dots); sliding_complex_peak_folded is that search for one
//    template. The per-lag complex_correlate_at and
//    normalized_complex_correlation_at are its reference definitions.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "pn/code.h"

namespace cbma::pn {

/// Periodic (cyclic) cross-correlation of bipolar versions of a and b at
/// shift tau: sum_i a[i] * b[(i+tau) mod L]. Codes must share a length.
int periodic_cross_correlation(const PnCode& a, const PnCode& b, std::size_t tau);

/// All L periodic cross-correlation values.
std::vector<int> periodic_cross_correlation_all(const PnCode& a, const PnCode& b);

/// Peak |cross-correlation| over all shifts; for a==b, shift 0 is excluded
/// (that is the autocorrelation peak).
int peak_cross_correlation(const PnCode& a, const PnCode& b);

/// Mean-removed correlation template for a code: bipolar chips minus their
/// mean, optionally repeated `samples_per_chip` times per chip.
std::vector<double> mean_removed_template(const PnCode& code,
                                          std::size_t samples_per_chip = 1);

// --- complex-baseband correlation (coherent receiver path) ---

/// Complex dot product of `signal` (from `offset`) against a real template;
/// returns 0 if the template does not fit. The result's argument is the
/// signal's carrier phase over the window: the phase
/// sliding_complex_peak_folded reports at its peak.
std::complex<double> complex_correlate_at(std::span<const std::complex<double>> signal,
                                          std::span<const double> tmpl,
                                          std::size_t offset);

/// |complex correlation| normalized by the L2 norms of the template and the
/// mean-removed signal window — in [0, 1], invariant to carrier phase: the
/// per-lag score sliding_complex_peak_folded maximizes.
double normalized_complex_correlation_at(std::span<const std::complex<double>> signal,
                                         std::span<const double> tmpl,
                                         std::size_t offset);

struct ComplexCorrelationPeak {
  std::size_t offset = 0;
  double value = 0.0;  ///< normalized |correlation| at the peak
  double phase = 0.0;  ///< carrier phase estimate at the peak (radians)
};

// --- split real/imag kernels (hot receiver path) ---
//
// The receiver deinterleaves a window once into separate I and Q arrays and
// runs every correlation on the split layout: each inner loop then streams
// one contiguous double array per component instead of strided
// std::complex pairs, which is what lets the compiler keep the
// multiply-accumulate chains in vector registers.

/// Deinterleave a complex window into separate re/im arrays (resized).
void split_iq(std::span<const std::complex<double>> iq, std::vector<double>& re,
              std::vector<double>& im);

// --- chip-folded kernels ---
//
// Every detection template is an upsampled chip sequence: `samples_per_chip`
// consecutive template samples share one value. A sliding dot product
// therefore factors through per-chip partial sums of the window,
//   dot(off) = Σ_c tmpl_chip[c] · fold[off + c·spc],
// where fold[x] = Σ_{j<spc} window[x+j]. Folding once per window (or per
// SIC residual update) cuts each lag's work by spc×, which dominates the
// user-detection search where many lags and many codes share one window.

/// Per-chip partial sums of `x`: out[i] = x[i] + … + x[i+spc−1], resized to
/// x.size() − spc + 1 (empty if x is shorter than one chip). `out` must not
/// share storage with `x` (checked: std::invalid_argument).
void fold_chip_sums(std::span<const double> x, std::size_t samples_per_chip,
                    std::vector<double>& out);

/// Recompute fold entries [begin, end) after `x` changed in place (the SIC
/// residual update). Bounds are clamped to the fold's size; as for
/// fold_chip_sums, `out` must not overlap `x`.
void refold_chip_sums(std::span<const double> x, std::size_t samples_per_chip,
                      std::size_t begin, std::size_t end, std::vector<double>& out);

/// complex_correlate_at against a chip-level template using pre-folded
/// per-chip window sums. Equals the sample-level dot up to FP rounding.
std::complex<double> complex_correlate_folded_at(std::span<const double> fold_re,
                                                 std::span<const double> fold_im,
                                                 std::span<const double> chip_tmpl,
                                                 std::size_t samples_per_chip,
                                                 std::size_t offset);

/// complex_correlate_folded_at at every lag in [begin, end): out_*[j] is
/// lag begin + j. Each lag sums in ascending chip order, so a lag's dot is
/// the same double however a range is split. Every lag's template must fit
/// the fold, and the outputs must hold end − begin entries.
void complex_correlate_folded(std::span<const double> fold_re,
                              std::span<const double> fold_im,
                              std::span<const double> chip_tmpl,
                              std::size_t samples_per_chip, std::size_t begin,
                              std::size_t end, std::span<double> out_re,
                              std::span<double> out_im);

/// complex_correlate_at on a split window against a sample-level template,
/// summed in ascending sample order; 0 if the template does not fit.
std::complex<double> complex_correlate_split_at(std::span<const double> re,
                                                std::span<const double> im,
                                                std::span<const double> tmpl,
                                                std::size_t offset);

// --- the sliding search, in parts ---
//
// The per-lag score, |Σ (r − mean)·t| / √(energy · ‖t‖²), splits into a raw
// template dot Σ r·t, template sums, and window terms that no template
// changes. A search over several templates computes the window terms once
// per lag and the dots once per template and lag (UserDetector::detect).

/// The window terms of the score over lags [begin, end) for templates of
/// `n` samples: each lag's window mean and mean-removed energy
/// Σ|r|² − |Σr|²/n. One running pass in ascending lag: the sums start over
/// [begin, begin + n), and each step adds the sample entering the window
/// and drops the one leaving it. The last lag's window must fit.
struct WindowStats {
  std::vector<double> mean_re;
  std::vector<double> mean_im;
  std::vector<double> energy;
};
void sliding_window_stats(std::span<const double> re, std::span<const double> im,
                          std::size_t n, std::size_t begin, std::size_t end,
                          WindowStats& out);

/// A chip template's sample-level sum and energy, each chip repeated
/// `samples_per_chip` times: the template terms of the score.
struct TemplateSums {
  double sum = 0.0;
  double norm2 = 0.0;
};
TemplateSums upsampled_template_sums(std::span<const double> chip_tmpl,
                                     std::size_t samples_per_chip);

/// One template's peak over the lags `stats` covers: dot_*[j] and stats
/// entry j belong to lag first_lag + j. Returns the first lag of the
/// largest score and the carrier phase of the raw dot there; the default
/// peak when no lag scores (none given, or NaN input).
ComplexCorrelationPeak peak_from_dots(std::span<const double> dot_re,
                                      std::span<const double> dot_im,
                                      const WindowStats& stats,
                                      const TemplateSums& tmpl,
                                      std::size_t first_lag);

/// Cross-correlation of two upsampled templates,
///   X(d) = Σ_i a[i]·b[i + d],  d in [−max_lag, max_lag] (entry max_lag + d),
/// built from the chip templates: for d = q·spc + r with 0 ≤ r < spc,
/// X(d) = (spc − r)·C(q) + r·C(q + 1), C the chip-level cross-correlation.
/// Cancelling b's template at offset o with gain g lowers a's raw dot at
/// lag L by exactly g·X(L − o) where b's template lies inside the window.
std::vector<double> upsampled_cross_correlation(std::span<const double> chip_a,
                                                std::span<const double> chip_b,
                                                std::size_t samples_per_chip,
                                                std::size_t max_lag);

/// Slide the upsampled `chip_tmpl` over the window's lags [search_begin,
/// search_end) and return the lag with the largest normalized |correlation|
/// plus the carrier phase there; the default peak when no lag fits. The
/// parts above, for one template: the dot products run on the folded sums. `re`/`im` are the raw split window
/// (for the normalization terms); `fold_re`/`fold_im` must be
/// fold_chip_sums of them; `chip_tmpl` is the chip-level (not upsampled)
/// mean-removed template.
ComplexCorrelationPeak sliding_complex_peak_folded(
    std::span<const double> re, std::span<const double> im,
    std::span<const double> fold_re, std::span<const double> fold_im,
    std::span<const double> chip_tmpl, std::size_t samples_per_chip,
    std::size_t search_begin, std::size_t search_end);

}  // namespace cbma::pn
