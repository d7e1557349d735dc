// The composite channel: assembles the receiver's complex-baseband window
// from every concurrently backscattering tag, the excitation envelope,
// ambient interference and thermal noise.
//
// Per DESIGN.md §4.1 the simulation runs at chip rate × samples_per_chip;
// each tag contributes a_i · e^{jφ_i} · chips_i(t − τ_i) where τ_i is the
// tag's asynchronous timing offset in (fractional) chips. Fractional delays
// are realized by linear interpolation, so sub-chip misalignment degrades
// correlation exactly as it does on hardware (Fig. 11).
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "rfsim/excitation.h"
#include "rfsim/impairment.h"
#include "rfsim/interference.h"
#include "rfsim/noise.h"
#include "util/rng.h"

namespace cbma::rfsim {

/// One tag's on-air contribution for a window.
struct TagTransmission {
  std::span<const std::uint8_t> chips;  ///< on/off chip sequence (frame, spread)
  double amplitude = 0.0;               ///< received amplitude (Friis × |ΔΓ| × 4/π)
  double phase = 0.0;                   ///< carrier phase at the receiver
  double delay_chips = 0.0;             ///< asynchronous start offset, ≥ 0
  /// Residual frequency offset of this tag's subcarrier oscillator relative
  /// to the receiver's tuning (Hz). Independent tag oscillators drift by
  /// tens of ppm, so the *relative* phase between two tags rotates within a
  /// frame — without this, two equal-power tags at opposite phase would
  /// cancel in the magnitude envelope for the whole frame, which hardware
  /// does not exhibit.
  double freq_offset_hz = 0.0;
};

/// Rician-style multipath: `extra_taps` delayed Rayleigh echoes per tag.
struct MultipathConfig {
  bool enabled = false;
  unsigned extra_taps = 2;
  double max_excess_delay_chips = 1.5;
  double relative_power_db = -9.0;  ///< mean echo power relative to the LOS path
};

struct ChannelConfig {
  std::size_t samples_per_chip = 4;
  double chip_rate_hz = 31e6;  ///< for converting interferer durations to samples
  double noise_power_w = 0.0;
  double tail_pad_chips = 8.0;  ///< silence appended after the longest burst
  MultipathConfig multipath;
  /// Fault-injection stages applied during synthesis (all off by default):
  /// excitation dropout gates the envelope, SPDT settling shapes each tag's
  /// chip waveform, and impulsive bursts + ADC distortion hit the received
  /// window after noise. See DESIGN.md §6 for the ordering contract.
  ImpairmentConfig impairments;
};

/// Reusable synthesis buffers: sized once for a group's window length and
/// reused across packets so the per-packet path performs no allocation.
struct ChannelScratch {
  std::vector<double> envelope;  ///< excitation amplitude envelope
  std::vector<double> waveform;  ///< current tag's per-sample 0/1 expansion
  std::vector<const CarrierLeakageInterferer*> leakage_run;  ///< tones fused into one pass
};

class Channel {
 public:
  explicit Channel(ChannelConfig config);

  const ChannelConfig& config() const { return config_; }
  double sample_rate_hz() const;

  /// Synthesize the received window into caller-owned buffers: `iq` and the
  /// scratch vectors are resized (capacity reused), so a sweep synthesizes
  /// thousands of windows with zero steady-state allocation. `interferers`
  /// may be empty; the excitation envelope scales tag contributions only
  /// (noise and interference do not depend on the excitation source).
  void receive_into(std::span<const TagTransmission> tags,
                    const ExcitationSource& excitation,
                    std::span<const Interferer* const> interferers, Rng& rng,
                    ChannelScratch& scratch,
                    std::vector<std::complex<double>>& iq) const;

  /// Allocating receive_into(): continuous-tone excitation, no interferers.
  std::vector<std::complex<double>> receive(std::span<const TagTransmission> tags,
                                            Rng& rng) const;

 private:
  /// Adds one path of a tag's per-sample waveform into `iq` (which must
  /// hold only tag terms summed from +0.0), delayed, rotated by the CFO and
  /// scaled by the envelope. Tests pin it bit for bit against a per-sample
  /// reference loop (DESIGN.md §9.2).
  void add_tag_path(std::vector<std::complex<double>>& iq,
                    std::span<const double> waveform, double amplitude_scale,
                    double phase, double delay_chips, double freq_offset_hz,
                    std::span<const double> envelope) const;

  ChannelConfig config_;
  ImpairmentSuite impairments_;
};

}  // namespace cbma::rfsim
