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

void LinkQualityRollup::add(const LinkQualityReport& report) {
  if (!report.valid) return;
  ++frames;
  snr_db_sum += report.snr_db;
  evm_sum += report.evm;
  soft_margin_sum += report.soft_margin;
  margin_ratio_sum += report.margin_ratio;
  power_norm_sum += report.power_norm;
  correlation_sum += report.correlation;
}

void LinkQualityRollup::merge(const LinkQualityRollup& other) {
  frames += other.frames;
  snr_db_sum += other.snr_db_sum;
  evm_sum += other.evm_sum;
  soft_margin_sum += other.soft_margin_sum;
  margin_ratio_sum += other.margin_ratio_sum;
  power_norm_sum += other.power_norm_sum;
  correlation_sum += other.correlation_sum;
}

namespace {
double mean_over(double sum, std::size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}
}  // namespace

double LinkQualityRollup::snr_db_mean() const {
  return mean_over(snr_db_sum, frames);
}
double LinkQualityRollup::evm_mean() const { return mean_over(evm_sum, frames); }
double LinkQualityRollup::soft_margin_mean() const {
  return mean_over(soft_margin_sum, frames);
}
double LinkQualityRollup::margin_ratio_mean() const {
  return mean_over(margin_ratio_sum, frames);
}
double LinkQualityRollup::power_norm_mean() const {
  return mean_over(power_norm_sum, frames);
}
double LinkQualityRollup::correlation_mean() const {
  return mean_over(correlation_sum, frames);
}

}  // namespace cbma::rx
