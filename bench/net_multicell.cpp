// Multi-cell network sweep — aggregate goodput and Jain fairness vs cell
// count and tags per cell, with spatial code reuse over one shared 64-code
// Gold family (the net:: layer end to end).
//
// Each grid point tiles a floor of 6 m x 4 m bays with cells_per_side^2
// gateways, drops tags_per_cell tags per bay, and runs three network
// rounds: link-budget association, hysteresis roaming under a mobility
// walk, per-cell CBMA MAC rounds with foreign-gateway excitation leakage
// in every cell's channel sum. The headline shape: a 3 x 3 floor of
// 8-tag cells beats the single-cell 64-code ceiling scenario (one gateway
// serving the same 72-tag floor, capped at 64 codes and stretched over
// 9 bays of range) — spatial reuse is the CDMA answer to the code-family
// limit.
#include <cstdio>
#include <string>

#include "common.h"
#include "net/network.h"
#include "util/metrics.h"
#include "util/table.h"

using namespace cbma;

namespace {

constexpr double kBayWidth = 6.0;
constexpr double kBayHeight = 4.0;
constexpr std::size_t kCodesPerCell = 8;
constexpr std::size_t kRounds = 3;

net::NetworkConfig make_config(std::size_t packets_per_round) {
  net::NetworkConfig cfg;
  cfg.cell.code_family = pn::CodeFamily::kGold;
  cfg.cell.max_tags = kCodesPerCell;
  cfg.cell.tx_power_dbm = 30.0;  // AP-class excitation per bay
  cfg.reuse.family_size = 64;
  cfg.packets_per_round = packets_per_round;
  cfg.tag_step_m = 0.3;  // exercise the mobility + roaming path
  return cfg;
}

struct PointOutcome {
  double goodput_mbps = 0.0;   ///< mean aggregate goodput over the rounds
  double jain = 0.0;           ///< mean Jain fairness over the rounds
  double fer = 0.0;            ///< sent-weighted network FER
  std::size_t sent = 0;
  std::size_t served = 0;
  std::size_t total = 0;
  std::size_t roamed = 0;
  std::size_t colors = 0;
};

PointOutcome run_network(net::Network& network, std::uint64_t seed) {
  PointOutcome out;
  out.colors = network.colors_used();
  std::size_t acked = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const auto result = network.run_round(util::point_seed(seed, 100 + round));
    out.goodput_mbps += result.aggregate_goodput_bps / 1e6 / kRounds;
    out.jain += result.jain_fairness / kRounds;
    out.roamed += result.roamed;
    out.served = result.tags_served;
    out.total = result.tags_total;
    for (const auto& cell : result.cells) {
      out.sent += cell.stats.total_sent();
      acked += cell.stats.total_acked();
    }
  }
  out.fer = out.sent > 0
                ? 1.0 - static_cast<double>(acked) / static_cast<double>(out.sent)
                : 0.0;
  return out;
}

}  // namespace

int main() {
  const std::vector<double> cells_per_side{1.0, 2.0, 3.0};
  const std::vector<double> tags_per_cell{4.0, 8.0};
  const std::size_t packets_per_round = bench::trials(10);

  core::SystemConfig header_cfg = make_config(packets_per_round).cell;
  header_cfg.code_family_size = 64;  // the shared family the cells slice

  const auto spec = bench::spec(
      "net_multicell",
      "Multi-cell network — goodput and fairness under spatial code reuse",
      "net:: layer; spatial reuse of the Fig. 9(b) Gold family across cells",
      {core::Axis::numeric("cells_per_side", cells_per_side),
       core::Axis::numeric("tags_per_cell", tags_per_cell)},
      packets_per_round);
  core::RunRecorder recorder(spec, header_cfg);
  recorder.print_header();

  // CBMA_METRICS=<path>: one window per network round, so the per-cell
  // goodput/outcome series chart every round of the sweep (the net::
  // layer publishes the samples and closes the windows).

  // Grid points run sequentially; each network round parallelizes across
  // its cells (worker-count independent by the net:: determinism contract).
  core::SweepRunner(spec).run(
      [&](const core::SweepPoint& point) {
        const auto side = static_cast<std::size_t>(point.value(0));
        const auto tpc = static_cast<std::size_t>(point.value(1));
        auto network = net::Network::grid(
            make_config(packets_per_round), kBayWidth * static_cast<double>(side),
            kBayHeight * static_cast<double>(side), side, side);
        Rng rng(point.seed());
        network.place_random_tags(side * side * tpc, rng);
        const auto out = run_network(network, point.seed());

        recorder.record(point.flat(), "aggregate_goodput_mbps", out.goodput_mbps);
        recorder.record(point.flat(), "jain_fairness", out.jain);
        recorder.record(point.flat(), "network_fer", out.fer);
        recorder.record(point.flat(), "colors_used",
                        static_cast<double>(out.colors));
        recorder.record(point.flat(), "tags_served",
                        static_cast<double>(out.served));
        recorder.record(point.flat(), "tags_total",
                        static_cast<double>(out.total));
        recorder.record(point.flat(), "tags_roamed",
                        static_cast<double>(out.roamed));
        recorder.record(point.flat(), "count_sent",
                        static_cast<double>(out.sent));
        // Sweep-point rollups under a "cond=<grid>/t<tags>" scope, so the
        // exposition distinguishes grid points from per-cell series.
        const std::string cond = "cond=" + std::to_string(side) + "x" +
                                 std::to_string(side) + "/t" +
                                 std::to_string(tpc);
        metrics::push("bench.goodput_mbps", cond, out.goodput_mbps, "Mbps");
        metrics::push("bench.network_fer", cond, out.fer);
        metrics::push("bench.tags_roamed", cond,
                      static_cast<double>(out.roamed));
      },
      /*workers=*/1);

  // The ceiling scenario the headline check compares against: one gateway
  // with the whole 64-code family serving the same 18 m x 12 m, 72-tag
  // floor — no reuse, every tag on one receiver, 8 tags beyond capacity.
  double ceiling_mbps = 0.0;
  {
    auto cfg = make_config(packets_per_round);
    cfg.cell.max_tags = 64;
    auto network = net::Network::grid(cfg, 3.0 * kBayWidth, 3.0 * kBayHeight, 1, 1);
    Rng rng(util::point_seed(bench::base_seed(), 9001));
    network.place_random_tags(72, rng);
    ceiling_mbps =
        run_network(network, util::point_seed(bench::base_seed(), 9002))
            .goodput_mbps;
  }

  const auto flat = [&](std::size_t s, std::size_t t) {
    return s * tags_per_cell.size() + t;
  };

  Table table({"grid", "tags/cell", "colors", "served", "FER",
               "goodput Mbps", "Jain", "roamed"});
  for (std::size_t s = 0; s < cells_per_side.size(); ++s) {
    for (std::size_t t = 0; t < tags_per_cell.size(); ++t) {
      const std::size_t f = flat(s, t);
      const auto side = static_cast<std::size_t>(cells_per_side[s]);
      table.add_row(
          {std::to_string(side) + "x" + std::to_string(side),
           Table::num(tags_per_cell[t], 0),
           Table::num(recorder.metric(f, "colors_used"), 0),
           Table::num(recorder.metric(f, "tags_served"), 0) + "/" +
               Table::num(recorder.metric(f, "tags_total"), 0),
           Table::percent(recorder.metric(f, "network_fer"), 1),
           Table::num(recorder.metric(f, "aggregate_goodput_mbps"), 2),
           Table::num(recorder.metric(f, "jain_fairness"), 3),
           Table::num(recorder.metric(f, "tags_roamed"), 0)});
    }
  }
  recorder.print_table(table);

  const std::size_t headline = flat(2, 1);  // 3x3 grid, 8 tags per cell
  recorder.record(headline, "ceiling_goodput_mbps", ceiling_mbps);
  const double multi = recorder.metric(headline, "aggregate_goodput_mbps");

  std::printf(
      "\n3x3 multi-cell vs single-cell 64-code ceiling: %s (%.2f vs %.2f Mbps)\n",
      recorder.check("multi-cell goodput exceeds the single-cell 64-code ceiling",
                     multi > ceiling_mbps)
          ? "HOLDS"
          : "VIOLATED",
      multi, ceiling_mbps);
  std::printf(
      "goodput grows with the cell grid at 8 tags/cell: %s\n",
      recorder.check("aggregate goodput grows with the cell grid",
                     recorder.metric(flat(2, 1), "aggregate_goodput_mbps") >
                         recorder.metric(flat(0, 1), "aggregate_goodput_mbps"))
          ? "HOLDS"
          : "VIOLATED");
  recorder.check("spatial reuse active on the 3x3 floor: 1 < colors <= 8",
                 recorder.metric(headline, "colors_used") > 1.0 &&
                     recorder.metric(headline, "colors_used") <= 8.0);

  // Watchdog: every point must have put frames on the air; aggregate
  // goodput scales superlinearly along the cell axis (1 -> 4 -> 9 cells),
  // so the neighbor test gets a tolerance wide enough for that curvature
  // and only fires on a genuine point collapse.
  const std::size_t fired = recorder.run_watchdog({
      {.metric = "count_sent", .floor = 0.5},
      {.metric = "aggregate_goodput_mbps", .neighbor_tolerance = 8.0},
      {.metric = "jain_fairness", .floor = 0.05},
  });
  if (fired > 0) {
    std::printf("\nwatchdog: %zu anomaly warning(s) — see stderr / JSON\n",
                fired);
  }
  return recorder.finish();
}
