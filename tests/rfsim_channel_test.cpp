#include "rfsim/channel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace cbma::rfsim {
namespace {

ChannelConfig quiet_config() {
  ChannelConfig cfg;
  cfg.samples_per_chip = 4;
  cfg.chip_rate_hz = 1e6;
  cfg.noise_power_w = 0.0;
  cfg.tail_pad_chips = 2.0;
  return cfg;
}

TEST(Channel, RejectsBadConfig) {
  ChannelConfig cfg = quiet_config();
  cfg.samples_per_chip = 0;
  EXPECT_THROW(Channel{cfg}, std::invalid_argument);
  cfg = quiet_config();
  cfg.chip_rate_hz = 0.0;
  EXPECT_THROW(Channel{cfg}, std::invalid_argument);
  cfg = quiet_config();
  cfg.noise_power_w = -1.0;
  EXPECT_THROW(Channel{cfg}, std::invalid_argument);
}

TEST(Channel, SampleRate) {
  const Channel ch(quiet_config());
  EXPECT_DOUBLE_EQ(ch.sample_rate_hz(), 4e6);
}

TEST(Channel, WindowLengthCoversBurstPlusPad) {
  const Channel ch(quiet_config());
  Rng rng(1);
  const std::vector<std::uint8_t> chips{1, 0, 1, 1};
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.delay_chips = 3.0;
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  // (3 + 4 + 2 pad) chips × 4 samples.
  EXPECT_EQ(iq.size(), static_cast<std::size_t>((3 + 4 + 2) * 4));
}

TEST(Channel, CleanSingleTagReproducesChips) {
  const Channel ch(quiet_config());
  Rng rng(2);
  const std::vector<std::uint8_t> chips{1, 0, 1, 1, 0, 0, 1};
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 2.0;
  tx.phase = 0.7;
  tx.delay_chips = 0.0;
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  for (std::size_t c = 0; c < chips.size(); ++c) {
    for (std::size_t s = 0; s < 4; ++s) {
      const double expected = chips[c] ? 2.0 : 0.0;
      EXPECT_NEAR(std::abs(iq[c * 4 + s]), expected, 1e-9)
          << "chip " << c << " sample " << s;
    }
  }
}

TEST(Channel, PhaseAppearsInIq) {
  const Channel ch(quiet_config());
  Rng rng(3);
  const std::vector<std::uint8_t> chips{1};
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = 1.2;
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  EXPECT_NEAR(std::arg(iq[1]), 1.2, 1e-9);
}

TEST(Channel, IntegerDelayShiftsWaveform) {
  const Channel ch(quiet_config());
  Rng rng(4);
  const std::vector<std::uint8_t> chips{1, 1};
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.delay_chips = 2.0;
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  for (std::size_t s = 0; s < 8; ++s) EXPECT_NEAR(std::abs(iq[s]), 0.0, 1e-12);
  for (std::size_t s = 8; s < 16; ++s) EXPECT_NEAR(std::abs(iq[s]), 1.0, 1e-9);
}

TEST(Channel, FractionalDelayInterpolates) {
  const Channel ch(quiet_config());
  Rng rng(5);
  const std::vector<std::uint8_t> chips{1};
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.delay_chips = 0.125;  // half a sample at 4 samples/chip
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  // First sample of the edge is interpolated: 0.5 amplitude.
  EXPECT_NEAR(std::abs(iq[0]), 0.5, 1e-9);
  EXPECT_NEAR(std::abs(iq[1]), 1.0, 1e-9);
}

TEST(Channel, RejectsNegativeDelay) {
  const Channel ch(quiet_config());
  Rng rng(6);
  const std::vector<std::uint8_t> chips{1};
  TagTransmission tx;
  tx.chips = chips;
  tx.delay_chips = -1.0;
  EXPECT_THROW(ch.receive(std::span(&tx, 1), rng), std::invalid_argument);
}

TEST(Channel, TwoTagsSuperpose) {
  const Channel ch(quiet_config());
  Rng rng(7);
  const std::vector<std::uint8_t> chips{1};
  TagTransmission a, b;
  a.chips = chips;
  a.amplitude = 1.0;
  a.phase = 0.0;
  b.chips = chips;
  b.amplitude = 1.0;
  b.phase = 0.0;
  const std::vector<TagTransmission> txs{a, b};
  const auto iq = ch.receive(txs, rng);
  EXPECT_NEAR(iq[0].real(), 2.0, 1e-9);  // coherent sum
}

TEST(Channel, OppositePhasesCancel) {
  const Channel ch(quiet_config());
  Rng rng(8);
  const std::vector<std::uint8_t> chips{1};
  TagTransmission a, b;
  a.chips = chips;
  a.amplitude = 1.0;
  a.phase = 0.0;
  b.chips = chips;
  b.amplitude = 1.0;
  b.phase = units::kPi;
  const std::vector<TagTransmission> txs{a, b};
  const auto iq = ch.receive(txs, rng);
  EXPECT_NEAR(std::abs(iq[0]), 0.0, 1e-9);
}

TEST(Channel, FrequencyOffsetRotatesPhase) {
  ChannelConfig cfg = quiet_config();
  const Channel ch(cfg);
  Rng rng(9);
  const std::vector<std::uint8_t> chips(100, 1);
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = 0.0;
  tx.freq_offset_hz = 1000.0;
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  // After k samples the phase must be 2π·f·k/fs.
  const std::size_t k = 200;
  const double want = 2.0 * units::kPi * 1000.0 * static_cast<double>(k) /
                      ch.sample_rate_hz();
  EXPECT_NEAR(std::arg(iq[k]), want, 1e-6);
  // Magnitude unaffected.
  EXPECT_NEAR(std::abs(iq[k]), 1.0, 1e-9);
}

TEST(Channel, NoiseRaisesFloor) {
  ChannelConfig cfg = quiet_config();
  cfg.noise_power_w = 0.01;
  const Channel ch(cfg);
  Rng rng(10);
  const std::vector<std::uint8_t> chips(512, 0);  // silent tag
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  const auto iq = ch.receive(std::span(&tx, 1), rng);
  double p = 0.0;
  for (const auto& s : iq) p += std::norm(s);
  p /= static_cast<double>(iq.size());
  EXPECT_NEAR(p, 0.01, 0.002);
}

TEST(Channel, MultipathAddsEchoEnergy) {
  ChannelConfig cfg = quiet_config();
  cfg.multipath.enabled = true;
  cfg.multipath.extra_taps = 2;
  cfg.multipath.relative_power_db = -6.0;
  const Channel with(cfg);
  const Channel without(quiet_config());
  Rng r1(11), r2(11);
  const std::vector<std::uint8_t> chips(256, 1);
  TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  const auto a = with.receive(std::span(&tx, 1), r1);
  const auto b = without.receive(std::span(&tx, 1), r2);
  double pa = 0.0, pb = 0.0;
  for (const auto& s : a) pa += std::norm(s);
  for (const auto& s : b) pb += std::norm(s);
  EXPECT_NE(pa, pb);  // echoes change the window energy
}

TEST(Channel, EmptyTagsGiveEmptyPaddedWindow) {
  const Channel ch(quiet_config());
  Rng rng(12);
  const auto iq = ch.receive({}, rng);
  EXPECT_EQ(iq.size(), static_cast<std::size_t>(2 * 4));  // tail pad only
}

}  // namespace
}  // namespace cbma::rfsim
