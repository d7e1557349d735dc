// Statistics helpers shared by tests, benches and the MAC layer: running
// moments, empirical CDFs, and binomial confidence intervals for error-rate
// estimates.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cbma {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  /// Combine another accumulator into this one (Chan's parallel update):
  /// the result is as if every sample of both had been add()ed here.
  void merge(const RunningStats& other);
  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const;  ///< Throws std::invalid_argument when count() == 0.
  double max() const;  ///< Throws std::invalid_argument when count() == 0.

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical distribution over a collected sample set.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// P(X <= x).
  double at(double x) const;

  /// Inverse CDF: smallest sample s with CDF(s) >= q, q in [0, 1].
  double quantile(double q) const;

  double median() const { return quantile(0.5); }
  std::size_t size() const { return sorted_.size(); }

  /// Evenly spaced (value, cumulative probability) pairs, suitable for
  /// printing a CDF curve like the paper's Fig. 10.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

/// Wilson score interval for a binomial proportion — used to report error
/// rates with honest uncertainty at the trial counts the paper uses.
struct ProportionInterval {
  double estimate;
  double lo;
  double hi;
};

ProportionInterval wilson_interval(std::size_t successes, std::size_t trials,
                                   double z = 1.96);

/// Mean of a vector (0 for empty).
double mean_of(const std::vector<double>& v);

}  // namespace cbma
