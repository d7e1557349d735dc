#include "core/system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/expect.h"
#include "util/telemetry.h"
#include "util/units.h"

namespace cbma::core {
namespace {

// Fraction of the reflected amplitude carried by the square-wave
// subcarrier's first harmonic in one sideband (paper Eq. 2: the Fourier
// coefficient of sin(2πΔf t) is 4/π, split across the ±Δf sidebands → 2/π).
constexpr double kSidebandAmplitudeFraction = 2.0 / units::kPi;

void random_payload_into(std::size_t bytes, Rng& rng,
                         std::vector<std::uint8_t>& out) {
  out.resize(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

std::string join_errors(const std::vector<std::string>& errors) {
  std::string msg = "invalid SystemConfig:";
  for (const auto& e : errors) {
    msg += "\n  - ";
    msg += e;
  }
  return msg;
}

/// Flight-recorder gate bitmask for the suite this round ran under.
std::uint8_t impairment_gate_bits(const rfsim::ImpairmentConfig& c) {
  std::uint8_t bits = 0;
  if (c.dropout.enabled) bits |= telemetry::kGateDropout;
  if (c.drift.enabled) bits |= telemetry::kGateDrift;
  if (c.switching.enabled) bits |= telemetry::kGateSwitching;
  if (c.impulsive.enabled) bits |= telemetry::kGateImpulsive;
  if (c.adc.enabled) bits |= telemetry::kGateAdc;
  return bits;
}

/// The calling thread's transmit buffers, shared by every system that
/// thread transmits for (DESIGN.md §4.7). They live until the thread exits
/// and hold its largest window. Nothing a transmit calls transmits again,
/// so the scratch is never in use twice at once.
TransmitScratch& thread_scratch() {
  thread_local TransmitScratch scratch;
  return scratch;
}

}  // namespace

CbmaSystem::CbmaSystem(SystemConfig config, rfsim::Deployment population)
    : config_(std::move(config)),
      population_(std::move(population)),
      bank_(config_.impedance_levels == 4
                ? rfsim::ReflectionStateBank::paper_bank(config_.carrier_hz)
                : rfsim::ReflectionStateBank::uniform_bank(
                      config_.impedance_levels, config_.impedance_range_db)) {
  CBMA_REQUIRE(population_.tag_count() >= 1, "population must contain tags");
  if (const auto errors = config_.validate(); !errors.empty()) {
    throw std::invalid_argument(join_errors(errors));
  }

  budget_.tx_power_w = units::dbm_to_watts(config_.tx_power_dbm);
  budget_.tx_gain = budget_.tag_gain = budget_.rx_gain = config_.antenna_gain;
  budget_.carrier_hz = config_.carrier_hz;
  budget_.alpha = config_.alpha;
  budget_.delta_gamma = 1.0;  // impedance factors are applied per tag state
  budget_.min_separation_m = config_.min_node_separation_m;

  if (config_.code_family_size > 0) {
    // Multi-cell slice: build the shared family once and keep only this
    // cell's [code_offset, code_offset + max_tags) window, so cells whose
    // slices are disjoint are guaranteed distinct family members.
    auto family = pn::make_code_set(config_.code_family, config_.code_family_size,
                                    config_.code_min_length);
    codes_.assign(
        std::make_move_iterator(family.begin() +
                                static_cast<std::ptrdiff_t>(config_.code_offset)),
        std::make_move_iterator(family.begin() + static_cast<std::ptrdiff_t>(
                                                     config_.code_offset +
                                                     config_.max_tags)));
  } else {
    codes_ = pn::make_code_set(config_.code_family, config_.max_tags,
                               config_.code_min_length);
  }
  noise_power_w_ = config_.noise_power_w();

  // The frame synchronizer needs a noise-only baseline window plus two
  // head windows before the earliest tag; guarantee the lead-in covers
  // them at any samples-per-chip setting.
  const double min_lead_chips =
      static_cast<double>(config_.sync.window + 2 * config_.sync.head_average + 8) /
          static_cast<double>(config_.samples_per_chip) +
      config_.max_async_jitter_chips + 2.0;
  config_.lead_in_chips = std::max(config_.lead_in_chips, min_lead_chips);

  impairments_ = rfsim::ImpairmentSuite(config_.impairments);

  rfsim::ChannelConfig ch;
  ch.samples_per_chip = config_.samples_per_chip;
  ch.chip_rate_hz = config_.chip_rate_hz();
  ch.noise_power_w = noise_power_w_;
  ch.multipath = config_.multipath;
  ch.impairments = config_.impairments;
  channel_ = std::make_unique<rfsim::Channel>(ch);

  rx::ReceiverConfig rc;
  rc.sync = config_.sync;
  rc.detect = config_.detect;
  rc.samples_per_chip = config_.samples_per_chip;
  rc.preamble_bits = config_.preamble_bits;
  rc.phase_tracking_gain = config_.phase_tracking_gain;
  receiver_ = std::make_unique<rx::Receiver>(rc, codes_);

  excitation_ = std::make_unique<rfsim::ContinuousTone>();

  if (config_.initial_impedance_level == SystemConfig::kStrongestImpedance) {
    config_.initial_impedance_level = bank_.strongest_level();
  }
  CBMA_REQUIRE(config_.initial_impedance_level < bank_.size(),
               "initial impedance level out of range");
  impedance_.assign(population_.tag_count(), config_.initial_impedance_level);

  slot_tags_.reserve(config_.max_tags);
  for (std::size_t k = 0; k < config_.max_tags; ++k) {
    phy::TagConfig tc;
    tc.id = static_cast<std::uint32_t>(k);
    tc.code = codes_[k];
    tc.preamble_bits = config_.preamble_bits;
    tc.impedance_levels = bank_.size();
    slot_tags_.emplace_back(tc);
    // Static crystal offsets spread the slots over ±max_static_ppm — the
    // deterministic per-tag component of the clock-drift impairment (0 when
    // the drift stage is off).
    slot_tags_.back().set_clock_offset_ppm(
        impairments_.static_clock_ppm(k, config_.max_tags));
  }

  // Default group: the first max_tags population members (or all of them).
  std::vector<std::size_t> all;
  const std::size_t n = std::min<std::size_t>(population_.tag_count(), config_.max_tags);
  for (std::size_t i = 0; i < n; ++i) all.push_back(i);
  set_active_group(std::move(all));
}

void CbmaSystem::set_active_group(std::vector<std::size_t> indices) {
  CBMA_REQUIRE(!indices.empty(), "active group must be non-empty");
  CBMA_REQUIRE(indices.size() <= config_.max_tags, "group exceeds code capacity");
  for (const auto idx : indices) {
    CBMA_REQUIRE(idx < population_.tag_count(), "group index out of population");
  }
  group_ = std::move(indices);
}

std::size_t CbmaSystem::impedance_level(std::size_t pop_index) const {
  CBMA_REQUIRE(pop_index < impedance_.size(), "tag index out of population");
  return impedance_[pop_index];
}

void CbmaSystem::set_impedance_level(std::size_t pop_index, std::size_t level) {
  CBMA_REQUIRE(pop_index < impedance_.size(), "tag index out of population");
  CBMA_REQUIRE(level < bank_.size(), "impedance level out of range");
  impedance_[pop_index] = level;
}

void CbmaSystem::step_impedance(std::size_t pop_index) {
  CBMA_REQUIRE(pop_index < impedance_.size(), "tag index out of population");
  impedance_[pop_index] = (impedance_[pop_index] + 1) % bank_.size();
}

void CbmaSystem::set_excitation(std::unique_ptr<rfsim::ExcitationSource> source) {
  CBMA_REQUIRE(source != nullptr, "excitation source must be non-null");
  excitation_ = std::move(source);
}

void CbmaSystem::add_interferer(std::unique_ptr<rfsim::Interferer> interferer) {
  CBMA_REQUIRE(interferer != nullptr, "interferer must be non-null");
  interferers_.push_back(std::move(interferer));
}

void CbmaSystem::clear_interferers() { interferers_.clear(); }

void CbmaSystem::set_obstacles(rfsim::ObstacleMap obstacles) {
  obstacles_ = std::move(obstacles);
}

double CbmaSystem::tag_amplitude(std::size_t pop_index) const {
  const double base = obstacles_.received_amplitude(budget_, population_, pop_index);
  return base * bank_.amplitude_factor(impedance_[pop_index]) *
         kSidebandAmplitudeFraction;
}

double CbmaSystem::received_power_dbm(std::size_t pop_index) const {
  const double a = tag_amplitude(pop_index);
  return units::watts_to_dbm(a * a);
}

double CbmaSystem::snr_db(std::size_t pop_index) const {
  const double a = tag_amplitude(pop_index);
  return units::to_db((a * a) / noise_power_w_);
}

double CbmaSystem::predicted_power_dbm(std::size_t pop_index) const {
  return units::watts_to_dbm(budget_.received_power(population_, pop_index));
}

rx::RxReport CbmaSystem::transmit(const TransmitOptions& options, Rng& rng) const {
  return transmit(options, rng, thread_scratch());
}

rx::RxReport CbmaSystem::transmit(const TransmitOptions& options, Rng& rng,
                                  TransmitScratch& scratch) const {
  const telemetry::ScopedSpan span_total(telemetry::Span::kTransmitTotal);
  const bool whole_group = options.slots.empty();
  const std::size_t n = whole_group ? group_.size() : options.slots.size();
  if (!options.payloads.empty()) {
    CBMA_REQUIRE(options.payloads.size() == n, "one payload per transmitting slot");
  }
  if (!options.delay_chips.empty()) {
    CBMA_REQUIRE(options.delay_chips.size() == n, "one delay per transmitting slot");
  }
  for (const auto slot : options.slots) {
    CBMA_REQUIRE(slot < group_.size(), "slot outside the active group");
  }
  const auto slot_of = [&](std::size_t k) {
    return whole_group ? k : options.slots[k];
  };

  // RNG draw order is contractual: seeds recorded by earlier experiments
  // must keep replaying the same streams, and the determinism test pins the
  // order. Whole-group rounds draw payloads as a block, then delays as a
  // block, then (phase, cfo) per slot; subset rounds draw payloads as a
  // block, then (phase, delay, cfo) per slot.
  scratch.chip_seqs.resize(n);
  {
    const telemetry::ScopedSpan span_spread(telemetry::Span::kTransmitSpread);
    for (std::size_t k = 0; k < n; ++k) {
      if (options.payloads.empty()) {
        random_payload_into(config_.payload_bytes, rng, scratch.payload);
        slot_tags_[slot_of(k)].chip_sequence_into(scratch.payload,
                                                  scratch.frame_bits,
                                                  scratch.chip_seqs[k]);
      } else {
        slot_tags_[slot_of(k)].chip_sequence_into(options.payloads[k],
                                                  scratch.frame_bits,
                                                  scratch.chip_seqs[k]);
      }
    }
  }

  scratch.delays.resize(n);
  if (whole_group) {
    if (options.delay_chips.empty()) {
      for (auto& d : scratch.delays) {
        d = rng.uniform(0.0, config_.max_async_jitter_chips);
      }
    } else {
      // Explicit delays replace the jitter draws entirely (the legacy
      // with-delays path performed no delay draws).
      for (std::size_t k = 0; k < n; ++k) scratch.delays[k] = options.delay_chips[k];
    }
  }

  scratch.txs.clear();
  scratch.txs.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    rfsim::TagTransmission tx;
    tx.chips = scratch.chip_seqs[k];
    tx.amplitude = tag_amplitude(group_[slot_of(k)]);
    tx.phase = rng.phase();
    double delay;
    if (whole_group) {
      delay = scratch.delays[k];
    } else if (!options.delay_chips.empty()) {
      delay = options.delay_chips[k];
    } else {
      delay = rng.uniform(0.0, config_.max_async_jitter_chips);
    }
    CBMA_REQUIRE(delay >= 0.0, "tag delays must be non-negative");
    tx.delay_chips = config_.lead_in_chips + delay;
    tx.freq_offset_hz = rng.uniform(-config_.cfo_max_hz, config_.cfo_max_hz);
    // Injected tag-side faults. Draw order per slot (contractual, after the
    // clean phase/delay/CFO draws so an all-off config leaves the historical
    // RNG stream untouched): clock wander, then switching jitter.
    if (impairments_.any_enabled()) {
      const telemetry::ScopedSpan span_imp(
          telemetry::Span::kTransmitImpairments);
      const auto clock = impairments_.perturb_clock(
          slot_tags_[slot_of(k)].clock_offset_ppm(), config_.subcarrier_hz,
          static_cast<double>(scratch.chip_seqs[k].size()), rng);
      tx.freq_offset_hz += clock.extra_freq_offset_hz;
      tx.delay_chips = std::max(0.0, tx.delay_chips + clock.extra_delay_chips +
                                         impairments_.switching_jitter_chips(rng));
    }
    scratch.txs.push_back(tx);
  }

  scratch.interferers.clear();
  scratch.interferers.reserve(interferers_.size());
  for (const auto& p : interferers_) scratch.interferers.push_back(p.get());

  channel_->receive_into(scratch.txs, *excitation_, scratch.interferers, rng,
                         scratch.channel, scratch.iq);
  // The streaming session is the receiver's per-packet state; process()
  // feeds it the round's window whole (DESIGN.md §10). It is bound on every
  // packet: the scratch may have served another system since, and an
  // address check could match a new receiver built where a freed one was.
  if (!scratch.rx_session) {
    scratch.rx_session = std::make_unique<rx::StreamingReceiver>(*receiver_);
  }
  scratch.rx_session->bind(*receiver_);
  auto report = scratch.rx_session->process(scratch.iq);

  if (telemetry::enabled()) {
    telemetry::count(telemetry::Counter::kTransmitPackets);
    telemetry::count(telemetry::Counter::kTransmitFramesSent, n);
    telemetry::count(telemetry::Counter::kRxFramesDecoded,
                     report.decoded_count());
    const std::uint8_t gates = impairment_gate_bits(impairments_.config());
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = slot_of(k);
      const auto& r = report.results[slot];
      telemetry::FrameTrace frame;
      frame.tag_id = static_cast<std::uint32_t>(slot);
      frame.pn_code_length = static_cast<std::uint32_t>(codes_[slot].length());
      frame.correlation = r.correlation;
      frame.margin = r.correlation - config_.detect.threshold;
      frame.cfo_hz = scratch.txs[k].freq_offset_hz;
      const double a = scratch.txs[k].amplitude;
      frame.power_dbm = units::watts_to_dbm(a * a);
      frame.impedance_level =
          static_cast<std::uint32_t>(impedance_[group_[slot]]);
      frame.outcome = static_cast<std::uint8_t>(r.outcome);
      frame.impairment_gates = gates;
      telemetry::record_frame(frame);
    }
  }
  return report;
}


RoundStats CbmaSystem::run_packets(std::size_t n_packets, Rng& rng) const {
  RoundStats stats(group_.size());
  TransmitScratch& scratch = thread_scratch();
  const TransmitOptions options;
  for (std::size_t p = 0; p < n_packets; ++p) {
    const auto report = transmit(options, rng, scratch);
    for (std::size_t slot = 0; slot < group_.size(); ++slot) {
      const auto& r = report.results[slot];
      stats.record(slot, r.crc_ok);
      stats.record_outcome(static_cast<std::size_t>(r.outcome));
      if (r.detected) {
        stats.record_margin(r.correlation_margin);
        // The receiver fills link_quality only while the probe or metrics
        // plane asked for it; empty means nothing to roll up.
        if (slot < report.link_quality.size()) {
          stats.record_quality(report.link_quality[slot]);
        }
      }
    }
  }
  return stats;
}

PowerControlOutcome CbmaSystem::run_power_control(
    const mac::PowerControlConfig& pc_config, std::size_t packets_per_round,
    Rng& rng) {
  mac::PowerController controller(pc_config, group_.size());
  // Algorithm 1 adapts from each tag's *current* level: tags whose ACK
  // ratio stays under 50 % cycle through the impedance states ("the power
  // control is performed circularly to try every possible power level",
  // §V-B) while healthy tags keep their working level.
  PowerControlOutcome outcome;
  while (true) {
    outcome.final_stats = run_packets(packets_per_round, rng);
    const auto ratios = outcome.final_stats.ack_ratios();
    const auto decision = controller.update(ratios);
    outcome.final_fer = decision.fer;
    if (!decision.adjusted || decision.exhausted) {
      outcome.exhausted = decision.exhausted;
      break;
    }
    for (std::size_t slot = 0; slot < group_.size(); ++slot) {
      if (decision.step_tag[slot]) step_impedance(group_[slot]);
    }
    ++outcome.rounds;
  }
  return outcome;
}

}  // namespace cbma::core
