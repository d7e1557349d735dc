// Cross-correlation decoding (§III-B): after user detection fixes a user's
// timing offset and carrier phase, every bit period of the complex baseband
// is correlated against the user's mean-removed bipolar code; the bit is
// the sign of the correlation projected onto the tracked carrier phase.
// With the footnote-2 convention ('0' chips are the negation of '1' chips)
// the two-template comparison the paper describes reduces to this single
// sign test, and a decision-directed loop tracks the slow phase drift from
// the tag's residual oscillator offset.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/frame.h"
#include "pn/code.h"

namespace cbma::rx {

struct DecodedFrame {
  std::vector<std::uint8_t> bits;  ///< all decoded bits after the preamble
  std::vector<double> soft;        ///< per-bit coherent correlation values
  std::optional<phy::ParsedFrame> frame;
  bool crc_ok = false;
  /// The window ended (or the advertised length was impossible) before the
  /// frame body completed — decoding stopped early rather than failing CRC.
  bool truncated = false;
  double final_phase = 0.0;        ///< tracked carrier phase after the frame
};

class Decoder {
 public:
  /// `phase_gain`: first-order gain of the decision-directed phase tracker
  /// (0 disables tracking; the residual CFO rotates the carrier by well
  /// under a degree per bit, so a light loop suffices and stays robust
  /// against MAI-noisy bits).
  Decoder(pn::PnCode code, std::size_t preamble_bits, std::size_t samples_per_chip,
          double phase_gain = 0.25);

  const pn::PnCode& code() const { return code_; }

  /// Decode the whole frame whose *preamble* starts at `preamble_offset`,
  /// starting from carrier phase estimate `phase0` (from user detection).
  /// Reads the length field first, then exactly the advertised body.
  DecodedFrame decode(std::span<const std::complex<double>> iq,
                      std::size_t preamble_offset, double phase0) const;

  /// decode() on a window already deinterleaved into split re/im arrays —
  /// the receiver's hot path (it splits the window once and every
  /// per-code correlation streams contiguous doubles).
  DecodedFrame decode(std::span<const double> re, std::span<const double> im,
                      std::size_t preamble_offset, double phase0) const;

  std::size_t samples_per_bit() const { return samples_per_bit_; }

  double phase_gain() const { return phase_gain_; }

 private:
  pn::PnCode code_;
  std::size_t preamble_bits_;
  std::size_t samples_per_chip_;
  std::size_t samples_per_bit_;
  double phase_gain_;
  std::vector<double> bit_template_;  ///< mean-removed, upsampled bipolar code
};

}  // namespace cbma::rx
