// Additive white Gaussian noise for the complex-baseband channel.
#pragma once

#include <complex>
#include <span>

#include "util/rng.h"

namespace cbma::rfsim {

class AwgnSource {
 public:
  /// `noise_power_w`: total complex noise power (variance of I plus
  /// variance of Q).
  explicit AwgnSource(double noise_power_w);

  /// One complex noise sample.
  std::complex<double> sample(Rng& rng) const;

  /// Add noise in place to a baseband buffer. Takes exactly one word from
  /// `rng` (none at zero power), whatever the buffer's length: the noise
  /// itself comes from the Rng::normal_stream() that word seeds.
  void add_to(std::span<std::complex<double>> iq, Rng& rng) const;

 private:
  double power_;
  double per_dim_sigma_;
};

}  // namespace cbma::rfsim
