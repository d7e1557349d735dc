// Randomized invariant checks ("fuzz") of the MAC algorithms: whatever the
// inputs, the power controller must respect its budget and thresholds, and
// the node selector must return structurally valid groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mac/node_selection.h"
#include "mac/power_control.h"
#include "util/rng.h"

namespace cbma::mac {
namespace {

TEST(PowerControllerFuzz, InvariantsUnderRandomAckSequences) {
  Rng rng(1);
  for (int scenario = 0; scenario < 50; ++scenario) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    PowerController pc({}, n);
    for (int round = 0; round < 30; ++round) {
      std::vector<double> ratios(n);
      for (auto& r : ratios) r = rng.uniform(0.0, 1.0);
      const auto d = pc.update(ratios);

      // FER consistent with its definition.
      double mean = 0;
      for (const double r : ratios) mean += r;
      EXPECT_NEAR(d.fer, 1.0 - mean / static_cast<double>(n), 1e-12);
      // A tag is stepped only if its ACK ratio is under the bar, and only
      // in rounds that adjusted at all.
      for (std::size_t i = 0; i < n; ++i) {
        if (d.step_tag[i]) {
          EXPECT_LT(ratios[i], 0.5);
          EXPECT_TRUE(d.adjusted);
        }
      }
      // The budget is monotone and capped at 3n.
      EXPECT_LE(pc.cycles_used(), pc.cycle_cap());
      if (pc.exhausted()) {
        EXPECT_TRUE(d.exhausted);
      }
    }
  }
}

TEST(PowerControllerFuzz, ExhaustionIsPermanentUntilReset) {
  PowerController pc({}, 2);
  const std::vector<double> dead{0.0, 0.0};
  while (!pc.exhausted()) pc.update(dead);
  for (int i = 0; i < 10; ++i) {
    const auto d = pc.update(dead);
    EXPECT_FALSE(d.adjusted);
    EXPECT_TRUE(d.exhausted);
  }
  pc.reset();
  EXPECT_TRUE(pc.update(dead).adjusted);
}

TEST(NodeSelectorFuzz, GroupsStayStructurallyValid) {
  Rng rng(2);
  rfsim::LinkBudget budget;
  const NodeSelector selector({}, budget);

  for (int scenario = 0; scenario < 40; ++scenario) {
    auto dep = rfsim::Deployment::paper_frame();
    const auto population =
        static_cast<std::size_t>(rng.uniform_int(4, 24));
    dep.place_random_tags(population, rfsim::Room{4.0, 6.0}, rng, 0.0, 0.15);

    const auto group_size = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<int>(std::min<std::size_t>(population, 8))));
    std::vector<std::size_t> indices(population);
    for (std::size_t i = 0; i < population; ++i) indices[i] = i;
    rng.shuffle(indices);
    std::vector<std::size_t> group(indices.begin(),
                                   indices.begin() + static_cast<long>(group_size));

    std::vector<double> ratios(group_size);
    for (auto& r : ratios) r = rng.uniform(0.0, 1.0);

    const auto out = selector.reselect(dep, group, ratios,
                                       static_cast<std::size_t>(rng.uniform_int(0, 20)),
                                       rng);
    // Same size, all indices valid, no duplicates.
    ASSERT_EQ(out.size(), group_size);
    std::set<std::size_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), group_size);
    for (const auto idx : out) EXPECT_LT(idx, population);
    // Healthy slots are never touched.
    for (std::size_t slot = 0; slot < group_size; ++slot) {
      if (ratios[slot] >= selector.config().bad_ack_ratio) {
        EXPECT_EQ(out[slot], group[slot]) << "healthy slot " << slot;
      }
    }
  }
}

TEST(NodeSelectorFuzz, ReplacementsRespectExclusionRadius) {
  Rng rng(3);
  rfsim::LinkBudget budget;
  NodeSelectionConfig cfg;
  cfg.exclusion_radius_m = 0.5;
  cfg.initial_acceptance = 1.0;  // accept anything outside the radius
  const NodeSelector selector(cfg, budget);

  for (int scenario = 0; scenario < 30; ++scenario) {
    auto dep = rfsim::Deployment::paper_frame();
    dep.place_random_tags(16, rfsim::Room{4.0, 6.0}, rng, 0.0, 0.15);
    std::vector<std::size_t> group{0, 1, 2, 3};
    std::vector<double> ratios{1.0, 1.0, 1.0, 0.0};  // slot 3 is bad
    const auto out = selector.reselect(dep, group, ratios, 0, rng);
    if (out[3] != 3) {
      for (std::size_t slot = 0; slot < 3; ++slot) {
        EXPECT_GE(dep.tag_to_tag(out[slot], out[3]), 0.5)
            << "replacement too close to slot " << slot;
      }
    }
  }
}

}  // namespace
}  // namespace cbma::mac
