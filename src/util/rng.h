// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library draws from an Rng that is
// explicitly seeded by the caller; the same seed reproduces the same
// experiment table bit-for-bit. `fork()` derives independent child streams
// so that adding draws in one component does not perturb another.
//
// Bulk Gaussian fills (AWGN, interference bursts) do not draw from the Rng
// sample by sample. They take one word from it via `normal_stream()` and
// draw every normal of the fill from the returned NormalStream: a local
// xoshiro256++ generator feeding a 256-layer ziggurat. A fill therefore
// advances the caller's stream by exactly one word whatever its length, the
// same isolation `fork()` gives.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace cbma {

/// Standard-normal stream: xoshiro256++ (seeded by splitmix64 from one word)
/// through a 256-layer ziggurat (Marsaglia & Tsang 2000, with Doornik's
/// independent index bits). About 98.5 % of draws cost one generator word,
/// two table reads and one compare.
class NormalStream {
 public:
  /// Base-strip edge of the 256-layer ziggurat: draws beyond ±kR come from
  /// the exact tail sampler.
  static constexpr double kR = 3.6541528853610088;
  static constexpr int kLayers = 256;

  explicit NormalStream(std::uint64_t seed);

  /// One standard-normal draw.
  double operator()() {
    const std::uint64_t bits = next_word();
    const auto i = static_cast<std::size_t>(bits & (kLayers - 1));
    // Signed 53-bit integer from the top bits, scaled to [-1, 1); disjoint
    // from the 8 index bits.
    const double u =
        static_cast<double>(static_cast<std::int64_t>(bits) >> 11) * 0x1.0p-52;
    const double x = u * x_[i];
    if (std::abs(x) < x_[i + 1]) return x;
    return slow(i, u, x);
  }

 private:
  /// Next raw 64-bit xoshiro256++ word.
  std::uint64_t next_word() {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Rejected from a layer's core: wedge test, or the tail for layer 0.
  double slow(std::size_t i, double u, double x);

  std::uint64_t s_[4] = {};
  const double* x_;  ///< layer edges x_[0..kLayers], decreasing to 0
  const double* f_;  ///< exp(-x²/2) at each edge
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Seed this generator was constructed with (for reporting).
  std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);

  /// Standard normal draw scaled by `stddev` around `mean`.
  double gaussian(double mean = 0.0, double stddev = 1.0);

  /// Standard-normal stream seeded from exactly one word of this stream, for
  /// bulk fills (see the file comment).
  NormalStream normal_stream() { return NormalStream(engine_()); }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponentially distributed draw with the given mean.
  double exponential(double mean);

  /// Uniform angle in [0, 2π).
  double phase();

  /// Derive an independent child stream; deterministic given this stream's
  /// state history.
  Rng fork();

  /// Shuffle a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace cbma
