#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/units.h"

namespace cbma {

double Rng::uniform(double lo, double hi) {
  CBMA_REQUIRE(lo <= hi, "uniform bounds inverted");
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  CBMA_REQUIRE(lo <= hi, "uniform_int bounds inverted");
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  CBMA_REQUIRE(stddev >= 0.0, "negative stddev");
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

namespace {

/// 256-layer ziggurat for exp(-x²/2): every layer (the base strip counts
/// its tail) has area kV, so a uniform layer index is exact.
struct ZigguratTables {
  double x[NormalStream::kLayers + 1];
  double f[NormalStream::kLayers + 1];
};

double half_gauss(double x) { return std::exp(-0.5 * x * x); }

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables = [] {
    constexpr double r = NormalStream::kR;
    constexpr int n = NormalStream::kLayers;
    const double v = r * half_gauss(r) +
                     std::sqrt(units::kPi / 2.0) * std::erfc(r / std::sqrt(2.0));
    ZigguratTables t{};
    t.x[0] = v / half_gauss(r);  // base strip's width with its tail folded in
    t.x[1] = r;
    for (int i = 1; i < n - 1; ++i) {
      t.x[i + 1] = std::sqrt(-2.0 * std::log(v / t.x[i] + half_gauss(t.x[i])));
    }
    t.x[n] = 0.0;
    for (int i = 0; i <= n; ++i) t.f[i] = half_gauss(t.x[i]);
    return t;
  }();
  return tables;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform in (0, 1] from the top 53 bits of a word (safe under log).
double open_unit(std::uint64_t bits) {
  return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

}  // namespace

NormalStream::NormalStream(std::uint64_t seed)
    : x_(ziggurat().x), f_(ziggurat().f) {
  for (auto& word : s_) word = splitmix64(seed);
}

double NormalStream::slow(std::size_t i, double u, double x) {
  if (i == 0) {
    // Tail beyond kR (Marsaglia 1964): exact, accepts ~94 % of tries.
    double tx = 0.0, ty = 0.0;
    do {
      tx = std::log(open_unit(next_word())) / kR;
      ty = std::log(open_unit(next_word()));
    } while (-2.0 * ty < tx * tx);
    return u < 0.0 ? tx - kR : kR - tx;
  }
  // Wedge between the layer's core and the curve: uniform height test.
  const double y =
      f_[i] + (f_[i + 1] - f_[i]) * (static_cast<double>(next_word() >> 11) * 0x1.0p-53);
  if (y < half_gauss(x)) return x;
  return (*this)();
}

bool Rng::bernoulli(double p) {
  CBMA_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  std::bernoulli_distribution d(p);
  return d(engine_);
}

double Rng::exponential(double mean) {
  CBMA_REQUIRE(mean > 0.0, "exponential mean must be positive");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Rng::phase() { return uniform(0.0, 2.0 * units::kPi); }

Rng Rng::fork() {
  // A fresh engine seeded from this stream; children are independent of each
  // other and of subsequent draws from the parent.
  return Rng(engine_());
}

}  // namespace cbma
