#include "rx/decoder.h"

#include <algorithm>
#include <cmath>

#include "pn/correlation.h"
#include "pn/simd.h"
#include "util/expect.h"
#include "util/units.h"

namespace cbma::rx {
namespace {

/// Wrap an angle to (−π, π].
double wrap_angle(double a) {
  while (a > units::kPi) a -= 2.0 * units::kPi;
  while (a <= -units::kPi) a += 2.0 * units::kPi;
  return a;
}

}  // namespace

Decoder::Decoder(pn::PnCode code, std::size_t preamble_bits,
                 std::size_t samples_per_chip, double phase_gain)
    : code_(std::move(code)),
      preamble_bits_(preamble_bits),
      samples_per_chip_(samples_per_chip),
      phase_gain_(phase_gain) {
  CBMA_REQUIRE(!code_.empty(), "decoder needs a code");
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  CBMA_REQUIRE(preamble_bits >= 1, "preamble must be at least one bit");
  CBMA_REQUIRE(phase_gain >= 0.0 && phase_gain <= 1.0,
               "phase gain must lie in [0, 1]");
  samples_per_bit_ = code_.length() * samples_per_chip_;
  bit_template_ = pn::mean_removed_template(code_, samples_per_chip_);
}

DecodedFrame Decoder::decode(std::span<const std::complex<double>> iq,
                             std::size_t preamble_offset, double phase0) const {
  std::vector<double> re, im;
  pn::split_iq(iq, re, im);
  return decode(re, im, preamble_offset, phase0);
}

DecodedFrame Decoder::decode(std::span<const double> re, std::span<const double> im,
                             std::size_t preamble_offset, double phase0) const {
  DecodedFrame out;
  const std::size_t body_start = preamble_offset + preamble_bits_ * samples_per_bit_;
  double phase = phase0;

  // Bits [0, fit) lie wholly inside the window; decoding stops at the
  // first bit that does not.
  const std::size_t fit =
      re.size() >= body_start ? (re.size() - body_start) / samples_per_bit_ : 0;
  const auto decode_bits = [&](std::size_t first_bit, std::size_t count) {
    // A bit's correlation does not depend on the tracked phase, so each
    // block of bit periods is correlated in one simd::period_dots pass
    // (four bits interleaved) before the decision loop walks it in order.
    constexpr std::size_t kBitBlock = 16;
    double block_re[kBitBlock];
    double block_im[kBitBlock];
    const std::size_t last = std::min(first_bit + count, fit);
    for (std::size_t b0 = first_bit; b0 < last; b0 += kBitBlock) {
      const std::size_t n_bits = std::min(kBitBlock, last - b0);
      const std::size_t off = body_start + b0 * samples_per_bit_;
      pn::simd::period_dots(re.data() + off, im.data() + off,
                            bit_template_.data(), samples_per_bit_, n_bits,
                            block_re, block_im);
      for (std::size_t k = 0; k < n_bits; ++k) {
        const std::complex<double> corr{block_re[k], block_im[k]};
        const double soft =
            corr.real() * std::cos(phase) + corr.imag() * std::sin(phase);
        out.soft.push_back(soft);
        const bool bit = soft > 0.0;
        out.bits.push_back(bit ? 1 : 0);
        // Decision-directed phase update: re-reference the correlation to
        // the decided symbol and nudge the tracked phase toward it.
        const std::complex<double> re_ref = bit ? corr : -corr;
        if (std::abs(re_ref) > 0.0 && phase_gain_ > 0.0) {
          phase += phase_gain_ * wrap_angle(std::arg(re_ref) - phase);
        }
      }
    }
    return last == first_bit + count;
  };

  // Length byte first, then exactly the advertised id + payload + CRC.
  // Early exits report `truncated` instead of throwing: garbage or cut-off
  // windows are expected inputs under degraded excitation, and the caller
  // (Receiver::process_iq) turns them into a failed DecodeOutcome.
  if (!decode_bits(0, 8)) {
    out.truncated = true;
    return out;
  }
  std::size_t length = 0;
  for (std::size_t i = 0; i < 8; ++i) length = (length << 1) | out.bits[i];
  if (length > phy::kMaxPayloadBytes) {
    out.truncated = true;  // impossible length byte: garbage, not a frame
    return out;
  }
  out.bits.reserve(8 + 8 * (length + 3));
  out.soft.reserve(8 + 8 * (length + 3));
  if (!decode_bits(8, 8 * (length + 3))) {
    out.truncated = true;
    return out;
  }

  out.frame = phy::parse_frame_body(out.bits);
  out.crc_ok = out.frame.has_value() && out.frame->crc_ok;
  out.final_phase = wrap_angle(phase);
  return out;
}

}  // namespace cbma::rx
