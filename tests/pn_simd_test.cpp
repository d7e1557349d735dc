// The kernel contract (pn/simd.h): every kernel's output equals, bit for
// bit, the plain per-output loop in its documented order, and fold_sums
// refuses an output that overlaps its input.
#include "pn/simd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "pn/correlation.h"
#include "util/rng.h"

namespace cbma::pn::simd {
namespace {

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

TEST(Simd, FoldSumsMatchesReference) {
  Rng rng(1);
  for (const std::size_t spc : {1u, 2u, 4u, 7u}) {
    // 1050 and 2020 are the per-call sizes of the gate workloads.
    for (const std::size_t count : {1u, 3u, 4u, 5u, 64u, 1001u, 1050u, 2020u}) {
      const auto x = random_vector(count + spc - 1, rng);
      std::vector<double> got(count, 0.0);
      fold_sums(x.data(), count, spc, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        double want = x[i];
        for (std::size_t j = 1; j < spc; ++j) want += x[i + j];
        // Reference accumulates in the same ascending-j order, so equality
        // is exact.
        EXPECT_EQ(got[i], want) << "spc=" << spc << " i=" << i;
      }
    }
  }
}

/// The body declares `x` and `out` disjoint (__restrict); an overlapping
/// call throws instead of reading what it has already written.
TEST(Simd, FoldSumsRejectsOverlappingOutput) {
  std::vector<double> v(128, 1.0);
  // out starts inside x's reach of 35, x starts inside out, and in place.
  EXPECT_THROW(fold_sums(v.data(), 32, 4, v.data() + 34), std::invalid_argument);
  EXPECT_THROW(fold_sums(v.data() + 8, 32, 4, v.data()), std::invalid_argument);
  EXPECT_THROW(fold_sums(v.data(), 32, 1, v.data()), std::invalid_argument);
  // In place through the span API: refold into the folded vector itself.
  EXPECT_THROW(refold_chip_sums(v, 4, 0, 8, v), std::invalid_argument);
  // Adjacent ranges share no element: x reaches v[34], out starts at v[35].
  EXPECT_NO_THROW(fold_sums(v.data(), 32, 4, v.data() + 35));
  EXPECT_NO_THROW(fold_sums(v.data() + 29, 29, 4, v.data()));
}

/// Byte equality of two vectors (memcmp on empty vectors would pass null).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Simd, FoldedDotsMatchPerLagReference) {
  // n_lags 0–19 straddle the 4-lag interleave and its tail; each lag must
  // equal the one-accumulator loop it replaced, bit for bit.
  Rng rng(5);
  for (const std::size_t spc : {1u, 2u, 3u, 4u, 5u}) {
    for (const std::size_t n_chips : {1u, 7u, 33u}) {
      const std::size_t max_lags = 19;
      const auto fr = random_vector(max_lags + (n_chips - 1) * spc, rng);
      const auto fi = random_vector(fr.size(), rng);
      const auto tmpl = random_vector(n_chips, rng);
      for (std::size_t n_lags = 0; n_lags <= max_lags; ++n_lags) {
        std::vector<double> want_re(n_lags), want_im(n_lags);
        for (std::size_t k = 0; k < n_lags; ++k) {
          double a = 0.0;
          double b = 0.0;
          for (std::size_t c = 0; c < n_chips; ++c) {
            a += fr[k + c * spc] * tmpl[c];
            b += fi[k + c * spc] * tmpl[c];
          }
          want_re[k] = a;
          want_im[k] = b;
        }
        std::vector<double> got_re(n_lags), got_im(n_lags);
        folded_dots(fr.data(), fi.data(), tmpl.data(), n_chips, spc, n_lags,
                    got_re.data(), got_im.data());
        EXPECT_TRUE(same_bits(got_re, want_re))
            << "spc=" << spc << " chips=" << n_chips << " lags=" << n_lags;
        EXPECT_TRUE(same_bits(got_im, want_im));
      }
    }
  }
}

TEST(Simd, PeriodDotsMatchPerPeriodReference) {
  // count 0–19 straddles the 4-period interleave and its tail; each period
  // must equal the one-accumulator loop, bit for bit.
  Rng rng(7);
  for (const std::size_t n : {1u, 5u, 80u, 83u}) {
    const std::size_t max_count = 19;
    const auto xr = random_vector(max_count * n, rng);
    const auto xi = random_vector(xr.size(), rng);
    const auto tmpl = random_vector(n, rng);
    for (std::size_t count = 0; count <= max_count; ++count) {
      std::vector<double> want_re(count), want_im(count);
      for (std::size_t b = 0; b < count; ++b) {
        double a = 0.0;
        double c = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          a += xr[b * n + k] * tmpl[k];
          c += xi[b * n + k] * tmpl[k];
        }
        want_re[b] = a;
        want_im[b] = c;
      }
      std::vector<double> got_re(count), got_im(count);
      period_dots(xr.data(), xi.data(), tmpl.data(), n, count, got_re.data(),
                  got_im.data());
      EXPECT_TRUE(same_bits(got_re, want_re)) << "n=" << n << " count=" << count;
      EXPECT_TRUE(same_bits(got_im, want_im));
    }
  }
}

}  // namespace
}  // namespace cbma::pn::simd
