#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rx/receiver.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace cbma::net {
namespace {

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.cell.code_family = pn::CodeFamily::kGold;
  cfg.cell.code_min_length = 31;
  cfg.cell.max_tags = 2;
  cfg.cell.tx_power_dbm = 30.0;
  cfg.packets_per_round = 3;
  return cfg;
}

TEST(Network, GridPlacesGatewaysAtBayCentres) {
  auto network = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  ASSERT_EQ(network.cell_count(), 4u);
  // Row-major over 6 m x 4 m bays centred on the origin.
  EXPECT_NEAR(network.gateways()[0].center().x, -3.0, 1e-12);
  EXPECT_NEAR(network.gateways()[0].center().y, -2.0, 1e-12);
  EXPECT_NEAR(network.gateways()[3].center().x, 3.0, 1e-12);
  EXPECT_NEAR(network.gateways()[3].center().y, 2.0, 1e-12);
  // ES/RX straddle the centre along x by the configured offset.
  const auto& gw = network.gateways()[0];
  EXPECT_NEAR(gw.rx.x - gw.es.x, 1.0, 1e-12);
  EXPECT_NEAR(gw.es.y, gw.rx.y, 1e-12);
}

TEST(Network, AssociationIsDeterministicAtFixedSeed) {
  auto a = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  auto b = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  Rng ra(42), rb(42);
  a.place_random_tags(16, ra);
  b.place_random_tags(16, rb);
  a.associate();
  b.associate();
  ASSERT_EQ(a.association().size(), 16u);
  EXPECT_EQ(a.association(), b.association());
}

TEST(Network, AssociatesEveryTagToItsStrongestGateway) {
  auto network = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  Rng rng(7);
  network.place_random_tags(12, rng);
  network.associate();
  for (std::size_t t = 0; t < network.tag_count(); ++t) {
    const std::size_t serving = network.association()[t];
    ASSERT_NE(serving, Network::kUnassociated);
    for (std::size_t g = 0; g < network.cell_count(); ++g) {
      EXPECT_LE(network.link_budget_dbm(t, g),
                network.link_budget_dbm(t, serving) + 1e-9)
          << "tag " << t << " serving " << serving
          << " but gateway " << g << " is stronger";
    }
  }
}

TEST(Network, RoamingHonoursHysteresis) {
  auto network = Network::grid(small_config(), 12.0, 4.0, 2, 1);
  network.add_tag({-3.0, 0.5});  // squarely in gateway 0's bay
  network.associate();
  ASSERT_EQ(network.association()[0], 0u);

  // A spot where gateway 1 is better, but within the 3 dB margin: stay.
  network.move_tag(0, {0.2, 0.5});
  const double adv_small =
      network.link_budget_dbm(0, 1) - network.link_budget_dbm(0, 0);
  ASSERT_GT(adv_small, 0.0);
  ASSERT_LT(adv_small, network.config().roaming_hysteresis_db);
  EXPECT_EQ(network.roam(), 0u);
  EXPECT_EQ(network.association()[0], 0u);

  // Clearly inside gateway 1's bay: the margin is beaten, the tag roams.
  network.move_tag(0, {1.0, 0.5});
  const double adv_big =
      network.link_budget_dbm(0, 1) - network.link_budget_dbm(0, 0);
  ASSERT_GT(adv_big, network.config().roaming_hysteresis_db);
  EXPECT_EQ(network.roam(), 1u);
  EXPECT_EQ(network.association()[0], 1u);
  // Idempotent: a second pass with no movement moves nothing.
  EXPECT_EQ(network.roam(), 0u);
}

TEST(Network, RoundResultsAreWorkerCountInvariant) {
  // The determinism contract: per-cell Rng(point_seed(seed, cell)) makes a
  // round's results byte-identical for any worker count.
  auto a = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  auto b = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  Rng ra(99), rb(99);
  a.place_random_tags(8, ra);
  b.place_random_tags(8, rb);

  for (std::uint64_t seed : {11ull, 12ull}) {
    const auto ra_ = a.run_round(seed, /*max_workers=*/1);
    const auto rb_ = b.run_round(seed, /*max_workers=*/4);
    EXPECT_EQ(ra_.aggregate_goodput_bps, rb_.aggregate_goodput_bps);
    EXPECT_EQ(ra_.jain_fairness, rb_.jain_fairness);
    EXPECT_EQ(ra_.roamed, rb_.roamed);
    EXPECT_EQ(ra_.tags_served, rb_.tags_served);
    ASSERT_EQ(ra_.cells.size(), rb_.cells.size());
    for (std::size_t c = 0; c < ra_.cells.size(); ++c) {
      EXPECT_EQ(ra_.cells[c].stats.total_sent(), rb_.cells[c].stats.total_sent());
      EXPECT_EQ(ra_.cells[c].stats.total_acked(), rb_.cells[c].stats.total_acked());
      EXPECT_EQ(ra_.cells[c].goodput_bps, rb_.cells[c].goodput_bps);
      EXPECT_EQ(ra_.cells[c].members, rb_.cells[c].members);
      EXPECT_EQ(ra_.cells[c].per_tag_goodput_bps, rb_.cells[c].per_tag_goodput_bps);
    }
  }
}

TEST(Network, ServedTagsAreCappedByTheCellSlice) {
  auto network = Network::grid(small_config(), 12.0, 4.0, 2, 1);
  // Three tags crowd gateway 0's bay; its slice holds max_tags = 2 codes.
  network.add_tag({-3.0, 0.5});
  network.add_tag({-2.5, -0.5});
  network.add_tag({-3.5, 0.0});
  const auto result = network.run_round(5);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].tags_total, 3u);
  EXPECT_EQ(result.cells[0].tags_served, 2u);
  EXPECT_EQ(result.tags_served, 2u);
  EXPECT_EQ(result.tags_total, 3u);
}

TEST(Network, MobilityWalkIsSeededAndClampedToTheFloor) {
  auto cfg = small_config();
  cfg.tag_step_m = 0.5;
  auto a = Network::grid(cfg, 12.0, 8.0, 2, 2);
  auto b = Network::grid(cfg, 12.0, 8.0, 2, 2);
  Rng ra(3), rb(3);
  a.place_random_tags(6, ra);
  b.place_random_tags(6, rb);
  a.run_round(21, 1);
  b.run_round(21, 2);
  for (std::size_t t = 0; t < a.tag_count(); ++t) {
    EXPECT_EQ(a.tag(t).x, b.tag(t).x);
    EXPECT_EQ(a.tag(t).y, b.tag(t).y);
    EXPECT_LE(std::abs(a.tag(t).x), 6.0);
    EXPECT_LE(std::abs(a.tag(t).y), 4.0);
  }
}

// --- metrics-plane attribution (DESIGN.md §12) -----------------------------
// These flip the process-global metrics flag; gtest_discover_tests runs
// each TEST in its own process, so the flip cannot leak.

TEST(Network, MetricsPlaneChangesNoResultsAndAttributesEveryCell) {
  auto off_net = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  auto on_net = Network::grid(small_config(), 12.0, 8.0, 2, 2);
  Rng ro(5), rn(5);
  off_net.place_random_tags(8, ro);
  on_net.place_random_tags(8, rn);

  metrics::set_enabled(false);
  const auto off = off_net.run_round(31);

  metrics::set_enabled(true);
  metrics::set_export_path("");
  telemetry::reset();
  const auto on = on_net.run_round(31);
  const auto snap = telemetry::snapshot().metrics;
  metrics::set_enabled(false);
  telemetry::set_enabled(false);

  // Observing the round must not move it: bit-identical aggregates.
  EXPECT_EQ(off.aggregate_goodput_bps, on.aggregate_goodput_bps);
  EXPECT_EQ(off.jain_fairness, on.jain_fairness);
  EXPECT_EQ(off.tags_served, on.tags_served);
  EXPECT_EQ(off.roamed, on.roamed);

  // One round at cadence 1 closed exactly one window.
  EXPECT_EQ(snap.windows, 1u);

  // Every cell charted its goodput under its own scope, at the value the
  // round result reports; the global rollup series carries the aggregate.
  auto last_value = [&](const std::string& name,
                        const std::string& scope) -> double {
    for (const auto& s : snap.series) {
      if (s.name == name && s.scope == scope && !s.points.empty()) {
        return s.points.back().value;
      }
    }
    ADD_FAILURE() << "missing series " << name << " scope '" << scope << "'";
    return -1.0;
  };
  ASSERT_EQ(on.cells.size(), 4u);
  for (const auto& cell : on.cells) {
    const std::string scope = "cell=" + std::to_string(cell.gateway_id);
    EXPECT_EQ(last_value("net.cell.goodput_bps", scope), cell.goodput_bps);
    EXPECT_EQ(last_value("net.cell.tags_served", scope),
              static_cast<double>(cell.tags_served));
    EXPECT_EQ(last_value("net.cell.sent", scope),
              static_cast<double>(cell.stats.total_sent()));
  }
  EXPECT_EQ(last_value("net.goodput_bps", ""), on.aggregate_goodput_bps);
  EXPECT_EQ(last_value("net.jain_fairness", ""), on.jain_fairness);
  EXPECT_EQ(last_value("net.tags_total", ""), 8.0);
}

TEST(Network, MetricsAttributeEachCellsSeriesToItsGatewayScope) {
  auto network = Network::grid(small_config(), 12.0, 4.0, 2, 1);
  // Both tags in gateway 0's bay: gateway 1's cell runs with no members.
  network.add_tag({-3.0, 0.5});
  network.add_tag({-2.5, -0.5});
  metrics::set_enabled(true);
  metrics::set_export_path("");
  telemetry::reset();
  const auto result = network.run_round(9);
  const auto snap = telemetry::snapshot().metrics;
  metrics::set_enabled(false);
  telemetry::set_enabled(false);

  auto find = [&](const std::string& name, const std::string& scope) {
    const metrics::SeriesSnapshot* found = nullptr;
    for (const auto& s : snap.series) {
      if (s.name == name && s.scope == scope) found = &s;
    }
    return found;
  };
  auto expect_last = [&](const std::string& name, const std::string& scope,
                         double value) {
    const auto* s = find(name, scope);
    ASSERT_NE(s, nullptr) << name << " " << scope;
    ASSERT_EQ(s->points.size(), 1u) << name << " " << scope;
    EXPECT_EQ(s->points.back().value, value) << name << " " << scope;
  };

  ASSERT_EQ(result.cells.size(), 2u);
  const auto& busy = result.cells[0];
  ASSERT_EQ(busy.tags_total, 2u);
  ASSERT_GT(busy.stats.quality.frames, 0u);
  std::size_t zero_outcomes = 0, charted_outcomes = 0;
  for (const auto& cell : result.cells) {
    const std::string scope = "cell=" + std::to_string(cell.gateway_id);
    expect_last("net.cell.goodput_bps", scope, cell.goodput_bps);
    EXPECT_EQ(find("net.cell.goodput_bps", scope)->unit, "bps");
    expect_last("net.cell.fer", scope, cell.stats.frame_error_rate());
    expect_last("net.cell.tags_served", scope,
                static_cast<double>(cell.tags_served));
    expect_last("net.cell.tags_total", scope,
                static_cast<double>(cell.tags_total));
    expect_last("net.cell.sent", scope,
                static_cast<double>(cell.stats.total_sent()));
    expect_last("net.cell.acked", scope,
                static_cast<double>(cell.stats.total_acked()));
    // Decode outcomes chart under their counters' names, non-zero counts
    // only.
    for (std::size_t o = 0; o < cell.stats.outcomes.size(); ++o) {
      const std::string name = telemetry::counter_name(
          rx::outcome_counter(static_cast<rx::DecodeOutcome>(o)));
      if (cell.stats.outcomes[o] == 0) {
        ++zero_outcomes;
        EXPECT_EQ(find(name, scope), nullptr) << name << " " << scope;
      } else {
        ++charted_outcomes;
        expect_last(name, scope, static_cast<double>(cell.stats.outcomes[o]));
        // A per-cell series joins the global one of the same name.
        EXPECT_NE(find(name, ""), nullptr) << name;
      }
    }
    // Link quality rolls up as the mean over the cell's valid reports; a
    // cell without any charts no link series.
    const auto& q = cell.stats.quality;
    if (q.frames == 0) {
      EXPECT_EQ(find("link.snr_db", scope), nullptr) << scope;
      continue;
    }
    const auto mean = q.mean();
    expect_last("link.snr_db", scope, mean.snr_db);
    EXPECT_EQ(find("link.snr_db", scope)->unit, "dB");
    expect_last("link.evm", scope, mean.evm);
    expect_last("link.soft_margin", scope, mean.soft_margin);
    expect_last("link.margin_ratio", scope, mean.margin_ratio);
  }
  EXPECT_GT(charted_outcomes, 0u);
  // The memberless cell still charts its round counters, and nothing else.
  EXPECT_EQ(result.cells[1].tags_total, 0u);
  EXPECT_EQ(result.cells[1].stats.quality.frames, 0u);
  EXPECT_GT(zero_outcomes, 0u);  // the "no series" branch really ran
}

TEST(Network, MetricsPlaneEmitsCodeSliceOverflowEvents) {
  auto network = Network::grid(small_config(), 12.0, 4.0, 2, 1);
  // Three tags crowd gateway 0's bay; its slice holds max_tags = 2 codes.
  network.add_tag({-3.0, 0.5});
  network.add_tag({-2.5, -0.5});
  network.add_tag({-3.5, 0.0});
  metrics::set_enabled(true);
  metrics::set_export_path("");
  telemetry::reset();
  const auto result = network.run_round(5);
  const auto snap = telemetry::snapshot().metrics;
  metrics::set_enabled(false);
  telemetry::set_enabled(false);

  ASSERT_EQ(result.cells[0].tags_served, 2u);
  bool saw_overflow = false;
  for (const auto& e : snap.events) {
    if (e.type != "code_slice_overflow") continue;
    saw_overflow = true;
    EXPECT_EQ(e.severity, metrics::Severity::kWarning);
    EXPECT_EQ(e.scope, "cell=0");
    EXPECT_DOUBLE_EQ(e.value, 1.0);  // 3 members for 2 served slots
  }
  EXPECT_TRUE(saw_overflow);
}

TEST(Network, MetricsPlaneEmitsRoamEvents) {
  auto network = Network::grid(small_config(), 12.0, 4.0, 2, 1);
  network.add_tag({-3.0, 0.5});
  network.associate();
  ASSERT_EQ(network.association()[0], 0u);
  network.move_tag(0, {1.0, 0.5});  // squarely in gateway 1's bay
  metrics::set_enabled(true);
  metrics::set_export_path("");
  telemetry::reset();
  ASSERT_EQ(network.roam(), 1u);
  const auto snap = telemetry::snapshot().metrics;
  metrics::set_enabled(false);
  telemetry::set_enabled(false);

  ASSERT_EQ(snap.events.size(), 1u);
  const auto& e = snap.events[0];
  EXPECT_EQ(e.type, "roam");
  EXPECT_EQ(e.severity, metrics::Severity::kInfo);
  EXPECT_EQ(e.scope, "cell=1");  // attributed to the destination cell
  EXPECT_DOUBLE_EQ(e.value, 0.0);  // the tag index
  EXPECT_NE(e.detail.find("cell 0 -> cell 1"), std::string::npos) << e.detail;
}

TEST(Network, ReuseColorsRespectTheFamilyAcrossTheGrid) {
  auto network = Network::grid(small_config(), 18.0, 12.0, 3, 3);
  // 6 m x 4 m bays color as a kings graph: 4 colors on a 3x3 floor.
  EXPECT_EQ(network.colors_used(), 4u);
  for (const auto& gw : network.gateways()) {
    EXPECT_LE(gw.code_offset + gw.code_count,
              network.config().reuse.family_size);
  }
}

}  // namespace
}  // namespace cbma::net
