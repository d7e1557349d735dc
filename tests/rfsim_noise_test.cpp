#include "rfsim/noise.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/stats.h"
#include "util/units.h"

namespace cbma::rfsim {
namespace {

TEST(AwgnSource, RejectsNegativePower) {
  EXPECT_THROW(AwgnSource(-1.0), std::invalid_argument);
}

TEST(AwgnSource, ZeroPowerIsSilent) {
  AwgnSource src(0.0);
  Rng rng(1);
  std::vector<std::complex<double>> iq(100, {1.0, 2.0});
  src.add_to(iq, rng);
  for (const auto& s : iq) {
    EXPECT_DOUBLE_EQ(s.real(), 1.0);
    EXPECT_DOUBLE_EQ(s.imag(), 2.0);
  }
}

TEST(AwgnSource, TotalPowerMatches) {
  const double power = 0.25;
  AwgnSource src(power);
  Rng rng(2);
  RunningStats p;
  for (int i = 0; i < 50000; ++i) {
    const auto s = src.sample(rng);
    p.add(std::norm(s));
  }
  EXPECT_NEAR(p.mean(), power, power * 0.05);
}

TEST(AwgnSource, IqComponentsBalanced) {
  AwgnSource src(1.0);
  Rng rng(3);
  RunningStats i_stats, q_stats;
  for (int i = 0; i < 50000; ++i) {
    const auto s = src.sample(rng);
    i_stats.add(s.real());
    q_stats.add(s.imag());
  }
  EXPECT_NEAR(i_stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(q_stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(i_stats.variance(), 0.5, 0.05);
  EXPECT_NEAR(q_stats.variance(), 0.5, 0.05);
}

TEST(AwgnSource, AddToTotalPowerMatches) {
  const double power = 0.25;
  std::vector<std::complex<double>> iq(50000, {0.0, 0.0});
  Rng rng(5);
  AwgnSource(power).add_to(iq, rng);
  RunningStats p;
  for (const auto& s : iq) p.add(std::norm(s));
  EXPECT_NEAR(p.mean(), power, power * 0.03);
}

TEST(AwgnSource, AddToIqComponentsBalanced) {
  std::vector<std::complex<double>> iq(50000, {0.0, 0.0});
  Rng rng(6);
  AwgnSource(1.0).add_to(iq, rng);
  RunningStats i_stats, q_stats;
  RunningStats iq_product;
  for (const auto& s : iq) {
    i_stats.add(s.real());
    q_stats.add(s.imag());
    iq_product.add(s.real() * s.imag());
  }
  EXPECT_NEAR(i_stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(q_stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(i_stats.variance(), 0.5, 0.02);
  EXPECT_NEAR(q_stats.variance(), 0.5, 0.02);
  EXPECT_NEAR(iq_product.mean(), 0.0, 0.01);  // I and Q uncorrelated
}

TEST(AwgnSource, AddToTakesOneCallerWordPerWindow) {
  for (const std::size_t n : {1u, 64u, 26500u}) {
    Rng filled(7), reference(7);
    std::vector<std::complex<double>> iq(n, {0.0, 0.0});
    AwgnSource(1.0).add_to(iq, filled);
    reference.engine().discard(1);
    EXPECT_TRUE(filled.engine() == reference.engine()) << n << " samples";
  }
  // Zero power draws nothing.
  Rng silent(7), untouched(7);
  std::vector<std::complex<double>> iq(64, {0.0, 0.0});
  AwgnSource(0.0).add_to(iq, silent);
  EXPECT_TRUE(silent.engine() == untouched.engine());
}

TEST(AwgnSource, AddToIsAdditive) {
  AwgnSource src(1.0);
  Rng a(4), b(4);
  std::vector<std::complex<double>> zero(64, {0.0, 0.0});
  std::vector<std::complex<double>> offset(64, {5.0, -3.0});
  src.add_to(zero, a);
  src.add_to(offset, b);
  for (std::size_t i = 0; i < zero.size(); ++i) {
    EXPECT_NEAR(offset[i].real() - 5.0, zero[i].real(), 1e-12);
    EXPECT_NEAR(offset[i].imag() + 3.0, zero[i].imag(), 1e-12);
  }
}

TEST(ThermalNoise, MatchesTextbookFloor) {
  // kTB at 290 K in 1 Hz is −174 dBm.
  const double w = units::thermal_noise_watts(1.0);
  EXPECT_NEAR(units::watts_to_dbm(w), -174.0, 0.2);
  // 20 MHz adds 73 dB.
  const double w20 = units::thermal_noise_watts(20e6);
  EXPECT_NEAR(units::watts_to_dbm(w20), -174.0 + 73.0, 0.3);
  // Noise figure adds dB-for-dB.
  EXPECT_NEAR(units::watts_to_dbm(units::thermal_noise_watts(20e6, 6.0)),
              -174.0 + 73.0 + 6.0, 0.3);
}

}  // namespace
}  // namespace cbma::rfsim
