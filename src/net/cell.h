// One cell of the multi-cell network: a gateway, its associated tags, and
// a lazily (re)built core::CbmaSystem running the full PHY pipeline on the
// cell's slice of the shared code family. Foreign gateways' excitation
// leakage enters the cell's channel sum as rfsim::CarrierLeakageInterferer
// terms, so inter-cell interference degrades decoding exactly where it
// physically lands — at this cell's receiver.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "mac/fsa.h"
#include "net/gateway.h"

namespace cbma::net {

/// One foreign gateway's surviving excitation leakage at this cell's RX.
struct ForeignLeakage {
  std::size_t gateway_id = 0;
  double power_w = 0.0;
  double freq_offset_hz = 0.0;  ///< residual inter-gateway oscillator offset
};

/// MAC scheme a cell round runs under. kCbma is the full coded pipeline;
/// kFsa is the framed-slotted-ALOHA baseline (MAC-only accounting over the
/// same membership, for the paper's §IX comparison at network scale).
enum class MacScheme { kCbma, kFsa };

struct CellRoundResult {
  std::size_t gateway_id = 0;
  core::RoundStats stats{0};   ///< per-served-slot sent/acked (kCbma)
  mac::FsaResult fsa{};        ///< slot accounting (kFsa)
  double goodput_bps = 0.0;    ///< delivered payload rate of the cell
  /// Total foreign-gateway leakage power at this RX (dBm); -300 when the
  /// cell hears no other gateway.
  double interference_dbm = -300.0;
  std::size_t tags_served = 0;  ///< members actually given a code slot
  std::size_t tags_total = 0;   ///< members associated to this cell
  /// Member tag ids (network-global), served tags first, ascending.
  std::vector<std::size_t> members;
  /// Delivered goodput per served member (aligned with members[0..served)).
  std::vector<double> per_tag_goodput_bps;
};

class Cell {
 public:
  explicit Cell(std::size_t gateway_id);

  /// The metrics-plane scope ("cell=<id>") of this cell's series.
  const std::string& metrics_scope() const { return metrics_scope_; }
  const std::vector<std::size_t>& members() const { return members_; }

  /// Replace the member list (ascending network-global tag ids). A changed
  /// list marks the cell dirty so the next ensure_system() rebuilds.
  void set_members(std::vector<std::size_t> members);

  /// Force a rebuild on the next ensure_system() (obstacles or code
  /// assignment changed under the cell).
  void invalidate() { dirty_ = true; }

  /// Build or refresh the cell's CbmaSystem: `base` is the network's cell
  /// config template (code_family_size already set); the cell stamps its
  /// gateway's code_offset and sizes max_tags to the served member count.
  /// `tag_positions` is indexed by network-global tag id. Cheap when only
  /// positions moved (population update, no rebuild).
  void ensure_system(const core::SystemConfig& base, const Gateway& gateway,
                     const std::vector<rfsim::Point>& tag_positions,
                     const rfsim::ObstacleMap& obstacles,
                     const std::vector<ForeignLeakage>& leaks);

  /// One MAC round: `packets` collided transmissions (kCbma) or `packets`
  /// FSA frames (kFsa) over the served members. Requires ensure_system()
  /// under kCbma (a memberless cell returns an all-zero result).
  CellRoundResult run_round(MacScheme scheme, std::size_t packets,
                            const mac::FsaConfig& fsa, Rng& rng) const;

  /// Served member count under the current system (0 before ensure_system).
  std::size_t served() const { return served_; }
  const core::CbmaSystem* system() const { return system_.get(); }

 private:
  std::size_t gateway_id_;
  std::string metrics_scope_;
  std::vector<std::size_t> members_;
  std::size_t served_ = 0;
  bool dirty_ = true;
  double interference_w_ = 0.0;
  std::unique_ptr<core::CbmaSystem> system_;
};

}  // namespace cbma::net
