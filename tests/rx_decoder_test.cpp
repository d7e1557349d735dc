#include "rx/decoder.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "phy/frame.h"
#include "phy/tag.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "util/rng.h"
#include "util/units.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;
constexpr double kLeadChips = 8.0;

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

rfsim::Channel channel(double noise = 0.0) {
  rfsim::ChannelConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.chip_rate_hz = 32e6;
  cfg.noise_power_w = noise;
  return rfsim::Channel(cfg);
}

std::vector<std::complex<double>> transmit(const pn::PnCode& code,
                                           std::uint8_t tag_id,
                                           const std::vector<std::uint8_t>& payload,
                                           double phase, double cfo, cbma::Rng& rng,
                                           double noise = 0.0) {
  phy::TagConfig tc;
  tc.id = tag_id;
  tc.code = code;
  tc.preamble_bits = kPreambleBits;
  const phy::Tag tag(tc);
  const auto chips = tag.chip_sequence(payload);
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = phase;
  tx.delay_chips = kLeadChips;
  tx.freq_offset_hz = cfo;
  return channel(noise).receive(std::span(&tx, 1), rng);
}

std::size_t preamble_offset() {
  return static_cast<std::size_t>(kLeadChips) * kSpc;
}

TEST(Decoder, RejectsBadConstruction) {
  const auto codes = group_codes(2);
  EXPECT_THROW(Decoder(pn::PnCode(), 8, kSpc), std::invalid_argument);
  EXPECT_THROW(Decoder(codes[0], 0, kSpc), std::invalid_argument);
  EXPECT_THROW(Decoder(codes[0], 8, 0), std::invalid_argument);
}

TEST(Decoder, SamplesPerBit) {
  const auto codes = group_codes(2);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  EXPECT_EQ(dec.samples_per_bit(), codes[0].length() * kSpc);
}

TEST(Decoder, CleanFrameRoundTrip) {
  const auto codes = group_codes(2);
  cbma::Rng rng(1);
  const std::vector<std::uint8_t> payload{0xDE, 0xAD, 0xBE, 0xEF};
  const auto iq = transmit(codes[0], 0, payload, 0.0, 0.0, rng);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  const auto frame = dec.decode(iq, preamble_offset(), 0.0);
  ASSERT_TRUE(frame.crc_ok);
  EXPECT_EQ(frame.frame->payload, payload);
  EXPECT_EQ(frame.frame->tag_id, 0);
}

TEST(Decoder, ArbitraryCarrierPhase) {
  const auto codes = group_codes(2);
  for (const double phase : {0.5, 1.7, 3.0, -2.2}) {
    cbma::Rng rng(2);
    const auto iq = transmit(codes[1], 1, {0x42}, phase, 0.0, rng);
    const Decoder dec(codes[1], kPreambleBits, kSpc);
    const auto frame = dec.decode(iq, preamble_offset(), phase);
    EXPECT_TRUE(frame.crc_ok) << "phase " << phase;
  }
}

TEST(Decoder, InvertedPhaseReferenceFailsCleanly) {
  // A π-off reference flips every bit; the phase tracker locks onto the
  // inverted constellation, so the frame is garbage and the CRC rejects it
  // rather than producing a silently wrong payload.
  const auto codes = group_codes(2);
  cbma::Rng rng(3);
  const auto iq = transmit(codes[0], 0, {1, 2, 3, 4, 5, 6}, 0.0, 0.0, rng, 1e-6);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  const auto frame = dec.decode(iq, preamble_offset(), 3.14159265);
  EXPECT_FALSE(frame.crc_ok);
}

TEST(Decoder, PhaseErrorWithinQuadrantConverges) {
  // The decision-directed tracker pulls in any initial error < 90°.
  const auto codes = group_codes(2);
  cbma::Rng rng(31);
  const auto iq = transmit(codes[0], 0, {9, 8, 7}, 0.0, 0.0, rng);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  for (const double err : {0.3, 0.8, 1.2, -1.2}) {
    EXPECT_TRUE(dec.decode(iq, preamble_offset(), err).crc_ok) << err;
  }
}

TEST(Decoder, PhaseTrackingFollowsCfo) {
  // 1.5 kHz CFO rotates the carrier by ~0.17 rad over a 12-byte frame at
  // 1 Mbps; the decision-directed loop must track it.
  const auto codes = group_codes(2);
  cbma::Rng rng(4);
  const std::vector<std::uint8_t> payload(12, 0x5A);
  const auto iq = transmit(codes[0], 0, payload, 0.3, 1500.0, rng);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  const auto frame = dec.decode(iq, preamble_offset(), 0.3);
  ASSERT_TRUE(frame.crc_ok);
  EXPECT_EQ(frame.frame->payload, payload);
}

TEST(Decoder, SoftValuesSignalBitValues) {
  const auto codes = group_codes(2);
  cbma::Rng rng(5);
  const auto iq = transmit(codes[0], 0, {0xF0}, 0.0, 0.0, rng);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  const auto frame = dec.decode(iq, preamble_offset(), 0.0);
  ASSERT_TRUE(frame.crc_ok);
  ASSERT_EQ(frame.bits.size(), frame.soft.size());
  for (std::size_t i = 0; i < frame.bits.size(); ++i) {
    EXPECT_EQ(frame.bits[i], frame.soft[i] > 0.0 ? 1 : 0);
  }
}

TEST(Decoder, TruncatedWindowFailsGracefully) {
  const auto codes = group_codes(2);
  cbma::Rng rng(6);
  const auto iq = transmit(codes[0], 0, {1, 2, 3, 4}, 0.0, 0.0, rng);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  // Cut the window in the middle of the payload.
  const std::span<const std::complex<double>> cut(iq.data(), iq.size() / 2);
  const auto frame = dec.decode(cut, preamble_offset(), 0.0);
  EXPECT_FALSE(frame.crc_ok);
  EXPECT_FALSE(frame.frame.has_value());
}

TEST(Decoder, WrongCodeDoesNotValidate) {
  const auto codes = group_codes(4);
  cbma::Rng rng(7);
  int false_ok = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> payload(6);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto iq = transmit(codes[0], 0, payload, rng.phase(), 0.0, rng);
    const Decoder dec(codes[2], kPreambleBits, kSpc);
    const auto frame = dec.decode(iq, preamble_offset(), 0.0);
    // A wrong aligned code may validate the CRC only by decoding the true
    // tag's bits — and then the embedded id (0) exposes it.
    if (frame.crc_ok && frame.frame->tag_id == 2) ++false_ok;
  }
  EXPECT_EQ(false_ok, 0);
}

TEST(Decoder, ModerateNoiseStillDecodes) {
  const auto codes = group_codes(2);
  cbma::Rng rng(8);
  int ok = 0;
  for (int trial = 0; trial < 20; ++trial) {
    // Chip SNR = 1/0.1 = 10 dB; post-despreading margin is ample.
    const auto iq = transmit(codes[0], 0, {7, 7, 7}, rng.phase(), 0.0, rng, 0.1);
    const Decoder dec(codes[0], kPreambleBits, kSpc);
    // Phase known: probe via clean detection assumption.
    const auto frame = dec.decode(iq, preamble_offset(), 0.0);
    (void)frame;
    // Re-decode with the true phase unknown is the receiver's job; here
    // noise robustness is checked with phase 0 transmissions.
    const auto iq2 = transmit(codes[0], 0, {7, 7, 7}, 0.0, 0.0, rng, 0.1);
    if (dec.decode(iq2, preamble_offset(), 0.0).crc_ok) ++ok;
  }
  EXPECT_GE(ok, 19);
}

/// What decode() reports, computed the way it was before the bit
/// correlations were batched: one one-accumulator dot per bit period,
/// interleaved with the phase tracker — the bit-exact reference.
struct PerBitDecode {
  std::vector<std::uint8_t> bits;
  std::vector<double> soft;
  bool truncated = false;
  double final_phase = 0.0;
};

PerBitDecode per_bit_decode(const Decoder& dec, std::span<const double> re,
                            std::span<const double> im,
                            std::size_t preamble_offset, double phase0) {
  const auto tmpl = pn::mean_removed_template(dec.code(), kSpc);
  const std::size_t spb = dec.samples_per_bit();
  const std::size_t body_start = preamble_offset + kPreambleBits * spb;
  const auto wrap = [](double a) {
    while (a > units::kPi) a -= 2.0 * units::kPi;
    while (a <= -units::kPi) a += 2.0 * units::kPi;
    return a;
  };
  PerBitDecode out;
  double phase = phase0;
  const auto decode_bits = [&](std::size_t first_bit, std::size_t count) {
    for (std::size_t b = first_bit; b < first_bit + count; ++b) {
      const std::size_t off = body_start + b * spb;
      if (off + spb > re.size()) return false;
      double acc_re = 0.0;
      double acc_im = 0.0;
      for (std::size_t k = 0; k < spb; ++k) {
        acc_re += re[off + k] * tmpl[k];
        acc_im += im[off + k] * tmpl[k];
      }
      const std::complex<double> corr{acc_re, acc_im};
      const double soft =
          corr.real() * std::cos(phase) + corr.imag() * std::sin(phase);
      out.soft.push_back(soft);
      const bool bit = soft > 0.0;
      out.bits.push_back(bit ? 1 : 0);
      const std::complex<double> re_ref = bit ? corr : -corr;
      if (std::abs(re_ref) > 0.0 && dec.phase_gain() > 0.0) {
        phase += dec.phase_gain() * wrap(std::arg(re_ref) - phase);
      }
    }
    return true;
  };
  if (!decode_bits(0, 8)) {
    out.truncated = true;
    return out;
  }
  std::size_t length = 0;
  for (std::size_t i = 0; i < 8; ++i) length = (length << 1) | out.bits[i];
  if (length > phy::kMaxPayloadBytes || !decode_bits(8, 8 * (length + 3))) {
    out.truncated = true;
    return out;
  }
  out.final_phase = wrap(phase);
  return out;
}

void expect_same_decode(const DecodedFrame& got, const PerBitDecode& want,
                        const std::string& where) {
  EXPECT_EQ(got.bits, want.bits) << where;
  ASSERT_EQ(got.soft.size(), want.soft.size()) << where;
  EXPECT_TRUE(want.soft.empty() ||
              std::memcmp(got.soft.data(), want.soft.data(),
                          want.soft.size() * sizeof(double)) == 0)
      << where;
  EXPECT_EQ(got.truncated, want.truncated) << where;
  EXPECT_EQ(std::memcmp(&got.final_phase, &want.final_phase, sizeof(double)),
            0)
      << where << ": " << got.final_phase << " vs " << want.final_phase;
}

TEST(Decoder, BatchedCorrelationsMatchPerBitReference) {
  // Noise and CFO keep the phase tracker moving, so a correlation that
  // differed in its last bit would show in the soft values or the phase.
  const auto codes = group_codes(2);
  cbma::Rng rng(9);
  const std::vector<std::uint8_t> payload{0x13, 0x57, 0x9B, 0xDF, 0x24};
  const auto iq = transmit(codes[0], 0, payload, 0.4, 2500.0, rng, 0.05);
  std::vector<double> re, im;
  pn::split_iq(iq, re, im);
  const Decoder dec(codes[0], kPreambleBits, kSpc);
  const std::size_t spb = dec.samples_per_bit();
  const std::size_t body_start = preamble_offset() + kPreambleBits * spb;
  const std::size_t frame_bits = 8 * (payload.size() + 4);
  const auto full = dec.decode(re, im, preamble_offset(), 0.4);
  ASSERT_TRUE(full.crc_ok);
  expect_same_decode(full, per_bit_decode(dec, re, im, preamble_offset(), 0.4),
                     "full window");
  // Windows cut at every bit boundary ±1 sample, through the length
  // byte and the body: the truncated prefix must match too.
  for (std::size_t b = 0; b <= frame_bits + 1; ++b) {
    for (const int delta : {-1, 0, 1}) {
      const std::size_t cut = body_start + b * spb + delta;
      if (cut > re.size()) continue;
      const std::span<const double> cre(re.data(), cut);
      const std::span<const double> cim(im.data(), cut);
      expect_same_decode(dec.decode(cre, cim, preamble_offset(), 0.4),
                         per_bit_decode(dec, cre, cim, preamble_offset(), 0.4),
                         "cut at bit " + std::to_string(b) + " " +
                             std::to_string(delta));
    }
  }
}

}  // namespace
}  // namespace cbma::rx
