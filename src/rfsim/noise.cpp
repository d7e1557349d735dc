#include "rfsim/noise.h"

#include <cmath>

#include "util/expect.h"

namespace cbma::rfsim {

AwgnSource::AwgnSource(double noise_power_w) : power_(noise_power_w) {
  CBMA_REQUIRE(noise_power_w >= 0.0, "noise power must be non-negative");
  per_dim_sigma_ = std::sqrt(noise_power_w / 2.0);
}

std::complex<double> AwgnSource::sample(Rng& rng) const {
  return {rng.gaussian(0.0, per_dim_sigma_), rng.gaussian(0.0, per_dim_sigma_)};
}

void AwgnSource::add_to(std::span<std::complex<double>> iq, Rng& rng) const {
  if (power_ <= 0.0) return;
  NormalStream normal = rng.normal_stream();
  for (auto& s : iq) {
    const double i = normal();
    s += std::complex<double>(i * per_dim_sigma_, normal() * per_dim_sigma_);
  }
}

}  // namespace cbma::rfsim
