// Exhaustive spreading-code family properties beyond the per-module tests:
// pairwise sweeps over whole families, balance distributions, and the
// cross-family guarantees the receiver design relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "pn/correlation.h"
#include "pn/gold.h"
#include "pn/twonc.h"

namespace cbma::pn {
namespace {

class GoldFullFamilyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldFullFamilyTest, EveryMemberBalancedWithinOne) {
  // Gold codes of a preferred pair are balanced or near-balanced: the
  // family's |balance| never exceeds a small bound relative to length.
  const GoldFamily fam(GetParam());
  const auto len = static_cast<int>(fam.code_length());
  for (std::size_t k = 0; k < fam.family_size(); ++k) {
    EXPECT_LE(std::abs(fam.code(k).balance()), len / 3) << "code " << k;
  }
}

TEST_P(GoldFullFamilyTest, FamilyIsClosedUnderDistinctness) {
  const GoldFamily fam(GetParam());
  std::set<std::vector<std::uint8_t>> seen;
  for (std::size_t k = 0; k < fam.family_size(); ++k) {
    EXPECT_TRUE(seen.insert(fam.code(k).chips()).second) << "duplicate " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, GoldFullFamilyTest, ::testing::Values(5u, 6u));

class TwoNCPairSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TwoNCPairSweepTest, AllPairsAlignedOrthogonal) {
  const std::size_t users = GetParam();
  const TwoNCFamily fam(users);
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = i + 1; j < users; ++j) {
      EXPECT_EQ(periodic_cross_correlation(fam.code(i), fam.code(j), 0), 0);
    }
  }
}

TEST_P(TwoNCPairSweepTest, AutocorrelationPeakIsLength) {
  const std::size_t users = GetParam();
  const TwoNCFamily fam(users);
  for (std::size_t i = 0; i < users; ++i) {
    EXPECT_EQ(periodic_cross_correlation(fam.code(i), fam.code(i), 0),
              static_cast<int>(fam.code_length()));
  }
}

TEST_P(TwoNCPairSweepTest, OffPeakAutocorrelationBounded) {
  // Practical lengths only (tiny 4-chip codes have no sidelobe structure
  // to speak of).
  const std::size_t users = GetParam();
  const TwoNCFamily fam(users, 16);
  const int bound = static_cast<int>(fam.code_length()) * 3 / 4;
  for (std::size_t i = 0; i < users; ++i) {
    EXPECT_LE(peak_cross_correlation(fam.code(i), fam.code(i)), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(UserCounts, TwoNCPairSweepTest,
                         ::testing::Values(std::size_t{2}, std::size_t{5},
                                           std::size_t{10}, std::size_t{16}));

TEST(FamilyComparison, AlignedInterferenceBudget) {
  // The quantity that drives multi-user decode quality at quasi-aligned
  // operation: the sum over interferers of |cross-correlation at lag 0|.
  // 2NC's budget is exactly zero; Gold's grows with the group size.
  for (const std::size_t users : {4u, 8u, 10u}) {
    const auto gold = GoldFamily(5).codes(users);
    const auto twonc = TwoNCFamily(users, 31).codes(users);
    int gold_budget = 0;
    int twonc_budget = 0;
    for (std::size_t j = 1; j < users; ++j) {
      gold_budget += std::abs(periodic_cross_correlation(gold[0], gold[j], 0));
      twonc_budget += std::abs(periodic_cross_correlation(twonc[0], twonc[j], 0));
    }
    EXPECT_EQ(twonc_budget, 0) << users;
    EXPECT_GT(gold_budget, 0) << users;
  }
}

TEST(FamilyComparison, MeanRemovedTemplatesNearOrthogonalWhenAligned) {
  // The receiver's actual decision statistic: dot products of mean-removed
  // templates. For 2NC they vanish; for Gold they stay below t(n) + |balance|
  // corrections.
  const auto codes = TwoNCFamily(8, 31).codes(8);
  std::vector<std::vector<double>> tmpls;
  for (const auto& c : codes) tmpls.push_back(mean_removed_template(c));
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      double dot = 0.0;
      for (std::size_t t = 0; t < tmpls[i].size(); ++t) dot += tmpls[i][t] * tmpls[j][t];
      // Zero cross-correlation of the bipolar codes leaves only the small
      // mean-product term n·m_i·m_j.
      EXPECT_LE(std::abs(dot), 4.0) << i << "," << j;
    }
  }
}

TEST(FamilyComparison, SpreadingGainIsCodeLength) {
  // Autocorrelation peak over chip count = 1 — the processing gain used in
  // every SNR budget of DESIGN.md.
  for (const auto& family :
       {make_code_set(CodeFamily::kGold, 4, 31), make_code_set(CodeFamily::kTwoNC, 4, 31)}) {
    for (const auto& code : family) {
      EXPECT_EQ(periodic_cross_correlation(code, code, 0),
                static_cast<int>(code.length()));
    }
  }
}

}  // namespace
}  // namespace cbma::pn
