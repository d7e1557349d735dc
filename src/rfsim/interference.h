// Ambient interferer models for the Fig. 12 working-condition study.
//
// Both interferers are modelled by their medium-occupancy statistics, which
// is what determines their impact on the narrowband backscatter channel:
//  * WiFi: CSMA/CA — exponentially distributed frame bursts separated by
//    DIFS+backoff idle gaps, so the channel is only intermittently occupied;
//  * Bluetooth: 79-channel FHSS with 625 µs dwells, so only the dwells that
//    hop onto the backscatter band inject energy.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cbma::rfsim {

class Interferer {
 public:
  virtual ~Interferer() = default;
  virtual std::string name() const = 0;

  /// Add this interferer's contribution to a complex-baseband window
  /// sampled at `sample_rate_hz`.
  virtual void add_to(std::vector<std::complex<double>>& iq, double sample_rate_hz,
                      Rng& rng) const = 0;

  /// Long-run fraction of samples this interferer occupies.
  virtual double occupancy() const = 0;
};

/// 802.11 CSMA/CA interferer: bursts of `mean_frame_s` separated by idle
/// gaps of `mean_idle_s`; while bursting, adds noise-like energy of
/// `power_w` (in-band leakage of the wideband WiFi frame).
class WifiInterferer final : public Interferer {
 public:
  WifiInterferer(double power_w, double mean_frame_s = 500e-6,
                 double mean_idle_s = 1500e-6);

  std::string name() const override { return "wifi"; }
  void add_to(std::vector<std::complex<double>>& iq, double sample_rate_hz,
              Rng& rng) const override;
  double occupancy() const override;

 private:
  double power_w_;
  double mean_frame_s_;
  double mean_idle_s_;
};

/// Residual excitation-carrier leakage from a *non-serving* gateway — the
/// inter-cell interference term of the multi-cell network layer (net::).
/// A neighbouring cell's excitation source is a continuous tone at the
/// carrier; after the receiver's subcarrier-offset filtering a fraction of
/// it survives as a near-DC complex tone of `power_w` (one-hop Friis from
/// the foreign ES to this RX, scaled by the rejection factor). The tone's
/// phase is drawn per window (the foreign oscillator is not phase-locked to
/// this cell), and `freq_offset_hz` models the residual offset between the
/// two gateways' carrier oscillators.
class CarrierLeakageInterferer final : public Interferer {
 public:
  explicit CarrierLeakageInterferer(double power_w, double freq_offset_hz = 0.0,
                                    std::string source = "gateway");

  std::string name() const override { return "leakage:" + source_; }
  void add_to(std::vector<std::complex<double>>& iq, double sample_rate_hz,
              Rng& rng) const override;
  /// A carrier is always on — the leakage occupies every sample.
  double occupancy() const override { return 1.0; }

  /// Render a run of leakage tones in one pass over the window. Phases are
  /// drawn and tones added to each sample in run order, so `iq` and `rng`
  /// end bit-identical to calling add_to() on each tone in turn (add_to() is
  /// a run of one). A zero-power tone draws nothing and adds nothing.
  static void add_run(std::span<const CarrierLeakageInterferer* const> run,
                      std::vector<std::complex<double>>& iq, double sample_rate_hz,
                      Rng& rng);

 private:
  double power_w_;
  double freq_offset_hz_;
  std::string source_;  ///< which gateway leaks (diagnostics)
};

/// Bluetooth FHSS interferer: fixed 625 µs dwells; each dwell lands on the
/// backscatter band with probability `overlap_channels / 79`, injecting
/// `power_w` of narrowband energy for that dwell.
class BluetoothInterferer final : public Interferer {
 public:
  explicit BluetoothInterferer(double power_w, unsigned overlap_channels = 4,
                               double dwell_s = 625e-6);

  std::string name() const override { return "bluetooth"; }
  void add_to(std::vector<std::complex<double>>& iq, double sample_rate_hz,
              Rng& rng) const override;
  double occupancy() const override;

  static constexpr unsigned kChannels = 79;

 private:
  double power_w_;
  unsigned overlap_channels_;
  double dwell_s_;
};

}  // namespace cbma::rfsim
