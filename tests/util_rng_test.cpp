#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/stats.h"
#include "util/units.h"

namespace cbma {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReportsSeed) {
  Rng r(1234);
  EXPECT_EQ(r.seed(), 1234u);
}

TEST(Rng, UniformWithinBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng r(7);
  EXPECT_THROW(r.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(r.gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, GaussianRejectsNegativeStddev) {
  Rng r(11);
  EXPECT_THROW(r.gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BernoulliRejectsOutOfRange) {
  Rng r(13);
  EXPECT_THROW(r.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW(r.bernoulli(-0.1), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(r.exponential(5.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.25);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(17);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, PhaseWithinCircle) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) {
    const double p = r.phase();
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 2.0 * units::kPi);
  }
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(23);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Children differ from each other.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child1.uniform() == child2.uniform()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(31), b(31);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

/// Standard-normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

std::vector<double> normal_draws(std::uint64_t seed, std::size_t n) {
  NormalStream normal(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = normal();
  return v;
}

TEST(NormalStream, SameSeedSameStream) {
  EXPECT_EQ(normal_draws(5, 1000), normal_draws(5, 1000));
  EXPECT_NE(normal_draws(5, 1000), normal_draws(6, 1000));
}

TEST(NormalStream, Moments) {
  RunningStats stats;
  double m3 = 0.0, m4 = 0.0;
  const auto v = normal_draws(41, 1'000'000);
  for (const double x : v) {
    stats.add(x);
    m3 += x * x * x;
    m4 += x * x * x * x;
  }
  const auto n = static_cast<double>(v.size());
  // About five standard errors over 10⁶ draws (0.001, 0.0014, 0.0039 and
  // 0.0098 for the first four moments).
  EXPECT_NEAR(stats.mean(), 0.0, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0, 0.007);
  EXPECT_NEAR(m3 / n, 0.0, 0.02);
  EXPECT_NEAR(m4 / n, 3.0, 0.05);
}

TEST(NormalStream, TailBeyondBaseStripMatchesErfc) {
  // Draws beyond ±r come only from the tail sampler; their mass must be
  // P(|X| > r) = erfc(r/√2), about 2.6e-4.
  const std::size_t n = 4'000'000;
  NormalStream normal(43);
  std::size_t beyond = 0, beyond_far = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = std::abs(normal());
    if (x > NormalStream::kR) ++beyond;
    if (x > NormalStream::kR + 0.5) ++beyond_far;
  }
  const auto expected = static_cast<double>(n) * std::erfc(NormalStream::kR / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(beyond), expected, 4.0 * std::sqrt(expected));
  // The tail's own shape: mass beyond r + 0.5 as a share of mass beyond r.
  const auto expected_far =
      static_cast<double>(n) * std::erfc((NormalStream::kR + 0.5) / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(beyond_far), expected_far, 4.0 * std::sqrt(expected_far));
}

TEST(NormalStream, KolmogorovSmirnovAgainstPhi) {
  auto v = normal_draws(47, 1'000'000);
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  double d = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double cdf = phi(v[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - cdf, cdf - static_cast<double>(i) / n});
  }
  EXPECT_LT(d, 1.628 / std::sqrt(n));  // 1 % critical value
}

TEST(Rng, NormalStreamTakesOneWord) {
  Rng a(53), b(53);
  NormalStream from_rng = a.normal_stream();
  NormalStream direct(b.engine()());
  EXPECT_TRUE(a.engine() == b.engine());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(from_rng(), direct());
}

}  // namespace
}  // namespace cbma
