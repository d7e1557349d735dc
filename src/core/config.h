// Top-level system configuration: one struct gathers every knob of the
// CBMA cell so experiments are reproducible from a printed config.
// Defaults follow the paper's implementation (§VI): 2 GHz carrier, 20 MHz
// subcarrier shift, 1 Mbps tag bit rate (1 µs symbol), one-byte 10101010
// preamble, 2NC codes (the family the paper adopts after Fig. 9(b)).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pn/code.h"
#include "rfsim/channel.h"
#include "rfsim/impairment.h"
#include "rx/receiver.h"

namespace cbma::core {

struct SystemConfig {
  // --- PHY / framing ---
  pn::CodeFamily code_family = pn::CodeFamily::kTwoNC;
  std::size_t code_min_length = 20;  ///< floor on code length (chips per bit)
  std::size_t max_tags = 10;         ///< group capacity (codes generated)
  /// Size of the code family to construct before slicing. 0 (default)
  /// builds exactly max_tags codes — the single-cell behaviour. A
  /// multi-cell deployment sets this to the shared family size (e.g. the
  /// paper's 64-code Gold family) so every cell derives its codes from the
  /// *same* family and the reuse scheduler can hand out disjoint
  /// [code_offset, code_offset + max_tags) slices.
  std::size_t code_family_size = 0;
  /// First family index this cell uses (only meaningful with a non-zero
  /// code_family_size). Slot k maps to family code code_offset + k.
  std::size_t code_offset = 0;
  std::size_t preamble_bits = phy::kDefaultPreambleBits;
  std::size_t payload_bytes = 8;
  double bitrate_bps = 1e6;  ///< per-tag data rate (1 µs symbol time)

  // --- RF / link budget ---
  double carrier_hz = 2.0e9;
  double subcarrier_hz = 20.0e6;    ///< Δf square-wave shift (documentation)
  double tx_power_dbm = 20.0;       ///< excitation source power P_t
  double antenna_gain = 1.58;       ///< G_t = G_tag = G_r (≈2 dBi)
  double alpha = 0.5;               ///< scattering efficiency in Eq. 1
  double noise_figure_db = 6.0;
  /// Extra noise margin over thermal: excitation-tone leakage at the offset
  /// frequency, phase noise and ADC quantization of the real receiver.
  /// Calibrated so benchmark-geometry SNRs land in the paper's observed
  /// 3–10 dB range (Table II); see DESIGN.md §4.3.
  double noise_margin_db = 24.0;
  /// Shortest node separation the link budget accepts before declaring the
  /// placement degenerate (rfsim::LinkBudget::min_separation_m). Hops
  /// shorter than this throw rfsim::MinSeparationError instead of being
  /// silently clamped.
  double min_node_separation_m = 1e-3;

  // --- channel / timing ---
  std::size_t samples_per_chip = 4;
  rfsim::MultipathConfig multipath;       ///< off by default; macro benches enable it
  /// Fault injection (DESIGN.md §6): excitation dropout, tag clock drift,
  /// SPDT switching jitter/settling, impulsive interference, ADC
  /// saturation/quantization. Every stage defaults to off, in which case the
  /// simulation (and every RNG draw) is identical to the clean pipeline.
  rfsim::ImpairmentConfig impairments;
  double lead_in_chips = 64.0;            ///< silence before the earliest tag
  double max_async_jitter_chips = 1.0;    ///< uniform per-tag start offset
  /// Residual oscillator offset of each tag's subcarrier, uniform in
  /// ±cfo_max_hz per frame (≈75 ppm of the 20 MHz shift).
  double cfo_max_hz = 1500.0;
  /// Tag impedance bank: 4 levels uses the paper's circuit-derived bank
  /// (2 nH / 3 pF / 1 pF / open); any other count builds a synthetic
  /// uniform ladder over `impedance_range_db` for design-space studies.
  std::size_t impedance_levels = 4;
  double impedance_range_db = 11.0;
  /// Impedance level every tag starts at; kStrongestImpedance (the
  /// default) maps to the bank's strongest state.
  static constexpr std::size_t kStrongestImpedance =
      static_cast<std::size_t>(-1);
  std::size_t initial_impedance_level = kStrongestImpedance;

  // --- receiver ---
  rx::FrameSyncConfig sync{};
  rx::UserDetectConfig detect{};
  double phase_tracking_gain = 0.25;

  // --- derived quantities ---
  double chip_rate_hz() const;      ///< bitrate × code length
  std::size_t code_length() const;  ///< chips per bit for this config
  double sample_rate_hz() const;
  double noise_power_w() const;     ///< thermal × NF × margin over chip bandwidth
  double symbol_time_s() const { return 1.0 / bitrate_bps; }

  std::string summary() const;  ///< one-line description for bench headers

  /// Validate every knob and return a descriptive message per violation
  /// (empty = valid). CbmaSystem's constructor runs this and reports all
  /// problems at once, so a misconfigured sweep fails with the full list
  /// instead of dying on the first CBMA_REQUIRE it happens to hit.
  std::vector<std::string> validate() const;
};

}  // namespace cbma::core
