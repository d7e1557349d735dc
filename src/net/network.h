// The multi-cell network layer: N gateways and M tags on one floor plan.
// Tags associate to the gateway with the strongest obstacle-shadowed
// two-hop link budget (Eq. 1 — the same metric node selection plans with),
// the CodeReuseScheduler partitions the shared code family across the cell
// interference graph, and each network round runs every cell's CBMA (or
// FSA-baseline) MAC round with foreign-gateway excitation leakage summed
// into the cell's channel. A roaming pass with hysteresis re-associates
// tags whose serving budget degrades as they move.
//
// Determinism contract (mirrors the sweep machinery): mobility and roaming
// run sequentially, then cells run under util::parallel_for with per-cell
// Rng(point_seed(seed, cell_id)) — so a round's results are byte-identical
// for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "mac/fsa.h"
#include "net/cell.h"
#include "net/code_reuse.h"
#include "net/gateway.h"
#include "rfsim/friis.h"
#include "rfsim/geometry.h"
#include "rfsim/obstacle.h"
#include "util/rng.h"

namespace cbma::net {

struct NetworkConfig {
  /// Per-cell system template. max_tags is the cell's group capacity —
  /// the codes-per-cell the reuse scheduler hands each color class.
  /// code_family_size/code_offset are owned by the network (the scheduler
  /// overwrites them per cell); leave them at their defaults.
  core::SystemConfig cell;
  CodeReuseConfig reuse;
  mac::FsaConfig fsa;               ///< baseline-mode MAC parameters
  MacScheme scheme = MacScheme::kCbma;
  /// Half-separation of a gateway's ES/RX pair along x (the paper's D).
  double gateway_es_rx_offset_m = 0.5;
  /// A tag roams only when a neighbour gateway's budget beats the serving
  /// one by more than this margin (dB) — the ping-pong guard.
  double roaming_hysteresis_db = 3.0;
  /// Per-round random-walk step of every tag (metres). 0 = static floor.
  double tag_step_m = 0.0;
  /// Collided transmissions (kCbma) or FSA frames (kFsa) per cell round.
  std::size_t packets_per_round = 20;
};

struct NetworkRoundResult {
  std::vector<CellRoundResult> cells;   ///< indexed by gateway id
  double aggregate_goodput_bps = 0.0;   ///< Σ cell goodput
  /// Jain index (Σx)²/(n·Σx²) over every tag's delivered goodput —
  /// unserved tags count as zero. 1.0 when no tag got anything (all equal).
  double jain_fairness = 1.0;
  std::size_t roamed = 0;               ///< tags moved by this round's pass
  std::size_t tags_served = 0;
  std::size_t tags_total = 0;
};

class Network {
 public:
  /// npos sentinel for "tag not yet associated".
  static constexpr std::size_t kUnassociated = static_cast<std::size_t>(-1);

  /// Takes explicit gateway placements; runs the code-reuse assignment
  /// immediately (obstacle-free — set_obstacles() re-runs it shadowed).
  Network(NetworkConfig config, rfsim::Room floor, std::vector<Gateway> gateways);

  /// nx × ny gateways at the centres of equal rectangular bays tiling a
  /// floor_w × floor_h floor (centred on the origin), ES/RX split along x.
  static Network grid(NetworkConfig config, double floor_w, double floor_h,
                      std::size_t nx, std::size_t ny);

  // --- population ---
  /// Uniform placement over the floor, rejecting draws closer than
  /// min_to_gateway to any ES/RX (mirrors Deployment::place_random_tags).
  void place_random_tags(std::size_t count, Rng& rng,
                         double min_to_gateway = 0.1);
  void add_tag(rfsim::Point p);
  /// Scripted mobility: reposition an existing tag. Association is kept —
  /// the next roam()/run_round() applies the hysteresis rule to the move.
  void move_tag(std::size_t i, rfsim::Point p);
  std::size_t tag_count() const { return tags_.size(); }
  const rfsim::Point& tag(std::size_t i) const { return tags_[i]; }

  void set_obstacles(rfsim::ObstacleMap obstacles);

  // --- association ---
  /// Obstacle-shadowed two-hop budget (dBm) of `tag` through gateway `gw`,
  /// hop distances floored at the budget's min separation (planning
  /// metric; the PHY itself uses true distances).
  double link_budget_dbm(std::size_t tag, std::size_t gw) const;
  /// Greedy full association: every tag to its strongest gateway (lowest
  /// id on exact ties). Implicit before the first run_round().
  void associate();
  /// Hysteresis pass: move a tag only when some gateway beats its serving
  /// budget by more than roaming_hysteresis_db. Returns tags moved.
  std::size_t roam();
  /// tag id → serving gateway id (kUnassociated before association).
  const std::vector<std::size_t>& association() const { return serving_; }

  // --- rounds ---
  /// One network round: mobility walk (if tag_step_m > 0), association /
  /// roaming, membership refresh, then every cell's MAC round in parallel
  /// (max_workers as in util::parallel_for; 0 = hardware concurrency).
  /// Byte-identical results for any worker count at a fixed seed.
  NetworkRoundResult run_round(std::uint64_t seed, std::size_t max_workers = 0);

  // --- introspection ---
  const NetworkConfig& config() const { return config_; }
  const rfsim::Room& floor() const { return floor_; }
  const std::vector<Gateway>& gateways() const { return gateways_; }
  std::size_t cell_count() const { return gateways_.size(); }
  const Cell& cell(std::size_t i) const { return cells_[i]; }
  std::size_t colors_used() const { return colors_used_; }
  const rfsim::LinkBudget& link_budget() const { return budget_; }

 private:
  void assign_codes();
  std::size_t best_gateway(std::size_t tag, double& best_dbm) const;
  std::vector<ForeignLeakage> leaks_at(std::size_t gw) const;
  /// Metrics-plane attribution for one finished round (strict no-op when
  /// the plane is off): per-cell samples under scope "cell=<id>", global
  /// rollup series, code-slice-overflow / decode-failure events, then one
  /// window close. Runs sequentially after the parallel cell pass joined.
  void publish_round(const NetworkRoundResult& result);

  NetworkConfig config_;
  rfsim::Room floor_;
  std::vector<Gateway> gateways_;
  std::vector<Cell> cells_;
  CodeReuseScheduler scheduler_;
  std::size_t colors_used_ = 0;
  rfsim::LinkBudget budget_;
  rfsim::ObstacleMap obstacles_;
  std::vector<rfsim::Point> tags_;
  std::vector<std::size_t> serving_;  ///< tag id → gateway id
  bool associated_ = false;
};

}  // namespace cbma::net
