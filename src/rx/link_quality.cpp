#include "rx/link_quality.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace cbma::rx {

LinkQualityReport compute_link_quality(std::span<const double> soft,
                                       double correlation, double runner_up,
                                       double window_rms) {
  LinkQualityReport report;
  if (soft.empty()) return report;
  report.valid = true;
  report.correlation = correlation;

  // Moments of the soft-decision magnitudes. With BPSK-style bipolar soft
  // values the magnitude is the distance from the decision boundary, so its
  // mean is the signal amplitude and its spread is the noise. Welford keeps
  // a spread tiny against the mean, where sum2/n − mean² cancels.
  RunningStats stats;
  for (const double s : soft) stats.add(std::abs(s));
  const auto n = static_cast<double>(soft.size());
  const double mean = stats.mean();
  const double var = stats.variance() * (n - 1.0) / n;  // population variance

  if (mean > 0.0) {
    // var == 0 happens for constant soft values (single bit, or a noiseless
    // synthetic window); report the same cap the ratio uses instead of inf.
    const double snr_lin =
        var > 0.0 ? (mean * mean) / var : kMaxMarginRatio;
    report.snr_db = 10.0 * std::log10(std::min(snr_lin, kMaxMarginRatio));
    report.evm = std::sqrt(var) / mean;
    report.soft_margin = stats.min() / mean;
  }
  report.margin_ratio =
      runner_up > correlation / kMaxMarginRatio && runner_up > 0.0
          ? correlation / runner_up
          : kMaxMarginRatio;
  if (window_rms > 0.0) report.power_norm = mean / window_rms;
  return report;
}

}  // namespace cbma::rx
