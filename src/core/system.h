// CbmaSystem — the end-to-end cell: a population of deployed tags, the
// excitation source, the channel and the receiver, plus the MAC control
// loops (Algorithm 1 power control; §V-C node selection is layered on top
// by core/experiment.h and the examples).
//
// The system distinguishes the *population* (every tag in the environment,
// with a persistent impedance level each) from the *active group* (the
// subset currently transmitting). Group slot k always uses group code k,
// mirroring the paper's fixed code-per-tag assignment within a group.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "mac/power_control.h"
#include "phy/tag.h"
#include "rfsim/channel.h"
#include "rfsim/excitation.h"
#include "rfsim/friis.h"
#include "rfsim/geometry.h"
#include "rfsim/impedance.h"
#include "rfsim/interference.h"
#include "rfsim/obstacle.h"
#include "rx/receiver.h"
#include "rx/streaming_receiver.h"
#include "util/rng.h"

namespace cbma::core {

struct PowerControlOutcome {
  RoundStats final_stats{0};
  std::size_t rounds = 0;     ///< adjustment rounds consumed
  bool exhausted = false;     ///< hit the 3×n cycle cap
  double final_fer = 1.0;
};

/// Everything one collided transmission can vary, gathered behind a single
/// entry point. Every field is optional; an empty span selects the
/// randomized default, so `transmit({}, rng)` is the common random round.
struct TransmitOptions {
  /// One payload per transmitting slot. Empty: random payloads of
  /// config().payload_bytes are drawn per slot.
  std::span<const std::vector<std::uint8_t>> payloads{};
  /// Per-slot start offsets in chips, added to the configured lead-in.
  /// Empty: uniform jitter in [0, max_async_jitter_chips] is drawn per slot.
  std::span<const double> delay_chips{};
  /// Slot indices (into the active group) that transmit this round. Empty:
  /// the whole active group transmits. The receiver always probes every
  /// group code regardless (the §VII-B2 user-detection experiment).
  std::span<const std::size_t> slots{};
};

/// Reusable buffers for the whole transmit pipeline — chip expansion,
/// channel synthesis and the receiver's split-window stages. Sized on the
/// largest window seen and reused, so a batched sweep keeps every window
/// buffer warm (DESIGN.md §4.7). One scratch may serve any number of
/// systems, one transmit at a time.
struct TransmitScratch {
  std::vector<std::vector<std::uint8_t>> chip_seqs;  ///< per-slot spread frames
  std::vector<std::uint8_t> frame_bits;              ///< framing intermediate
  std::vector<std::uint8_t> payload;                 ///< random-payload buffer
  std::vector<double> delays;                        ///< per-slot delay draws
  std::vector<rfsim::TagTransmission> txs;
  std::vector<const rfsim::Interferer*> interferers;
  rfsim::ChannelScratch channel;
  std::vector<std::complex<double>> iq;
  /// Persistent streaming Rx session (DESIGN.md §10) — the receiver-side
  /// scratch state. Made on the first transmit and bound to the
  /// transmitting system's receiver on every packet; its rings and window
  /// buffers stay warm across packets and systems.
  std::unique_ptr<rx::StreamingReceiver> rx_session;
};

class CbmaSystem {
 public:
  CbmaSystem(SystemConfig config, rfsim::Deployment population);

  const SystemConfig& config() const { return config_; }
  const rfsim::Deployment& population() const { return population_; }
  rfsim::Deployment& population() { return population_; }

  // --- group management ---
  /// Activate a subset of the population (indices). Group size is capped by
  /// config().max_tags; slot k uses group code k.
  void set_active_group(std::vector<std::size_t> indices);
  const std::vector<std::size_t>& active_group() const { return group_; }
  std::size_t group_size() const { return group_.size(); }

  // --- per-population-tag impedance state (persists across regrouping) ---
  std::size_t impedance_level(std::size_t pop_index) const;
  void set_impedance_level(std::size_t pop_index, std::size_t level);
  void step_impedance(std::size_t pop_index);
  std::size_t impedance_level_count() const { return bank_.size(); }

  // --- RF environment ---
  void set_excitation(std::unique_ptr<rfsim::ExcitationSource> source);
  void add_interferer(std::unique_ptr<rfsim::Interferer> interferer);
  void clear_interferers();
  /// Obstacle shadowing: actual links are attenuated per crossing, while
  /// predicted_power_dbm stays the *theoretical* Eq. 1 value (the node
  /// selector plans with theory, as §V-C describes).
  void set_obstacles(rfsim::ObstacleMap obstacles);

  // --- link queries ---
  /// Received backscatter power of population tag i at its current
  /// impedance level (dBm).
  double received_power_dbm(std::size_t pop_index) const;
  /// SNR of population tag i against the receiver noise floor (dB).
  double snr_db(std::size_t pop_index) const;
  /// Eq. 1 prediction at the strongest impedance level (node selection).
  double predicted_power_dbm(std::size_t pop_index) const;
  const rfsim::LinkBudget& link_budget() const { return budget_; }

  // --- transmission ---
  /// One collided transmission, fully described by `options` (payloads,
  /// delays and the transmitting subset all optional — see TransmitOptions).
  /// This is the single transmit entry point. (The pre-TransmitOptions
  /// transmit_round_* shims served their deprecation release and are gone;
  /// the RNG draw order they pinned is contractual on this function — see
  /// the draw-order comment in system.cpp and the determinism test.) Its
  /// buffers are the calling thread's TransmitScratch, which every system
  /// transmitting on that thread shares.
  rx::RxReport transmit(const TransmitOptions& options, Rng& rng) const;

  /// transmit() with caller-owned scratch. Reusing one TransmitScratch
  /// across packets keeps every buffer of the pipeline (chips, window,
  /// split re/im, residuals) warm.
  rx::RxReport transmit(const TransmitOptions& options, Rng& rng,
                        TransmitScratch& scratch) const;

  /// `n_packets` collided transmissions with random payloads, batched over
  /// the calling thread's TransmitScratch.
  RoundStats run_packets(std::size_t n_packets, Rng& rng) const;

  /// Algorithm 1: rounds of `packets_per_round` packets, stepping the
  /// impedance of under-performing tags until FER clears the threshold,
  /// no adjustment is needed, or the 3×n cycle cap is hit.
  PowerControlOutcome run_power_control(const mac::PowerControlConfig& pc_config,
                                        std::size_t packets_per_round, Rng& rng);

  // --- derived ---
  double chip_rate_hz() const { return config_.chip_rate_hz(); }
  double noise_power_w() const { return noise_power_w_; }
  const std::vector<pn::PnCode>& group_codes() const { return codes_; }
  const rx::Receiver& receiver() const { return *receiver_; }

 private:
  double tag_amplitude(std::size_t pop_index) const;

  SystemConfig config_;
  rfsim::Deployment population_;
  rfsim::LinkBudget budget_;
  rfsim::ReflectionStateBank bank_;
  std::vector<pn::PnCode> codes_;      ///< group codes, size = max_tags
  std::vector<std::size_t> group_;     ///< population indices
  std::vector<std::size_t> impedance_; ///< per population tag
  std::vector<phy::Tag> slot_tags_;    ///< PHY per group slot
  rfsim::ImpairmentSuite impairments_; ///< tag-side fault injection
  double noise_power_w_;
  rfsim::ObstacleMap obstacles_;
  std::unique_ptr<rfsim::Channel> channel_;
  std::unique_ptr<rx::Receiver> receiver_;
  std::unique_ptr<rfsim::ExcitationSource> excitation_;
  std::vector<std::unique_ptr<rfsim::Interferer>> interferers_;
};

}  // namespace cbma::core
