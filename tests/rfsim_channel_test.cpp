#include "rfsim/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

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

// ---------------------------------------------------------------------------
// The block-structured tag-path kernel against the per-sample loop it
// replaced. `legacy_add_tag_path` is that loop as it stood, and
// `legacy_receive` is receive_into() with it, so every window must match
// bit for bit (memcmp: signed zeros count).

void legacy_add_tag_path(const ChannelConfig& config, double sample_rate_hz,
                         std::vector<std::complex<double>>& iq,
                         std::span<const double> waveform, double amplitude_scale,
                         double phase, double delay_chips, double freq_offset_hz,
                         std::span<const double> envelope) {
  const auto spc = static_cast<double>(config.samples_per_chip);
  const double delay_samples = delay_chips * spc;
  std::complex<double> gain =
      amplitude_scale * std::complex<double>(std::cos(phase), std::sin(phase));
  const double dphi = 2.0 * units::kPi * freq_offset_hz / sample_rate_hz;
  const std::complex<double> rotator(std::cos(dphi), std::sin(dphi));
  const std::size_t n = waveform.size();
  const auto first = static_cast<std::size_t>(std::floor(delay_samples));
  const double frac0 = delay_samples - static_cast<double>(first);
  const std::size_t last = std::min(iq.size(), first + n + 2);
  constexpr std::size_t kBlock = 64;
  std::complex<double> rot_table[kBlock];
  std::complex<double> r{1.0, 0.0};
  for (auto& entry : rot_table) {
    entry = r;
    r *= rotator;
  }
  const std::complex<double> rot_block = r;
  std::complex<double> gain_block = gain;

  if (frac0 == 0.0) {
    for (std::size_t s = first, j = 0; s < last; ++s, ++j) {
      if (j == kBlock) {
        gain_block *= rot_block;
        j = 0;
      }
      const std::size_t k = s - first;
      const double v = k < n ? waveform[k] : 0.0;
      if (v != 0.0) iq[s] += (gain_block * rot_table[j]) * (v * envelope[s]);
    }
  } else {
    const double w_prev = frac0;
    const double w_cur = 1.0 - frac0;
    for (std::size_t s = first, j = 0; s < last; ++s, ++j) {
      if (j == kBlock) {
        gain_block *= rot_block;
        j = 0;
      }
      const std::size_t k = s - first;
      const double prev = (k >= 1 && k - 1 < n) ? waveform[k - 1] : 0.0;
      const double cur = k < n ? waveform[k] : 0.0;
      const double v = prev * w_prev + cur * w_cur;
      if (v != 0.0) iq[s] += (gain_block * rot_table[j]) * (v * envelope[s]);
    }
  }
}

std::vector<std::complex<double>> legacy_receive(const ChannelConfig& config,
                                                 std::span<const TagTransmission> tags,
                                                 const ExcitationSource& excitation,
                                                 Rng& rng) {
  const double fs = config.chip_rate_hz * static_cast<double>(config.samples_per_chip);
  const ImpairmentSuite impairments(config.impairments);
  double latest_end_chips = 0.0;
  for (const auto& t : tags) {
    latest_end_chips = std::max(
        latest_end_chips, t.delay_chips + static_cast<double>(t.chips.size()));
  }
  const auto n_samples = static_cast<std::size_t>(
      std::ceil((latest_end_chips + config.tail_pad_chips) *
                static_cast<double>(config.samples_per_chip)));
  std::vector<std::complex<double>> iq(n_samples, {0.0, 0.0});
  if (n_samples == 0) return iq;
  std::vector<double> envelope(n_samples, 1.0);
  excitation.envelope(envelope, fs, rng);
  impairments.gate_excitation(envelope, fs, rng);
  std::vector<double> waveform;
  for (const auto& tag : tags) {
    waveform.clear();
    for (const auto c : tag.chips) {
      const double v = c ? 1.0 : 0.0;
      for (std::size_t s = 0; s < config.samples_per_chip; ++s) waveform.push_back(v);
    }
    impairments.settle_waveform(waveform, config.samples_per_chip);
    legacy_add_tag_path(config, fs, iq, waveform, tag.amplitude, tag.phase,
                        tag.delay_chips, tag.freq_offset_hz, envelope);
    if (config.multipath.enabled) {
      const double mean_echo_amp =
          units::amplitude_from_db(config.multipath.relative_power_db);
      for (unsigned k = 0; k < config.multipath.extra_taps; ++k) {
        const double a = std::abs(rng.gaussian(0.0, mean_echo_amp)) * tag.amplitude;
        const double extra = rng.uniform(0.0, config.multipath.max_excess_delay_chips);
        legacy_add_tag_path(config, fs, iq, waveform, a, rng.phase(),
                            tag.delay_chips + extra, tag.freq_offset_hz, envelope);
      }
    }
  }
  AwgnSource(config.noise_power_w).add_to(iq, rng);
  impairments.distort_rx(iq, fs, rng);
  return iq;
}

/// Draws `n_tags` random-chip bursts of `chips` chips at `delays`, with
/// CFOs from `cfos`, and checks receive_into() against legacy_receive().
void expect_matches_per_sample_loop(const ChannelConfig& config, std::size_t chips,
                                    std::span<const double> delays,
                                    std::span<const double> cfos,
                                    const ExcitationSource& excitation,
                                    std::uint64_t seed) {
  Rng draw(seed);
  std::vector<std::vector<std::uint8_t>> sequences(delays.size());
  std::vector<TagTransmission> txs(delays.size());
  for (std::size_t i = 0; i < delays.size(); ++i) {
    for (std::size_t c = 0; c < chips; ++c) {
      sequences[i].push_back(draw.bernoulli(0.5) ? 1 : 0);
    }
    txs[i].chips = sequences[i];
    txs[i].amplitude = draw.uniform(0.5, 2.0);
    txs[i].phase = draw.phase();
    txs[i].delay_chips = delays[i];
    txs[i].freq_offset_hz = cfos[i % cfos.size()];
  }
  const Channel channel(config);
  Rng rng_new(seed + 1);
  Rng rng_old(seed + 1);
  ChannelScratch scratch;
  std::vector<std::complex<double>> got;
  channel.receive_into(txs, excitation, {}, rng_new, scratch, got);
  const auto want = legacy_receive(config, txs, excitation, rng_old);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(got[0])), 0);
  // Both consumed the same draws.
  EXPECT_EQ(rng_new.uniform(0.0, 1.0), rng_old.uniform(0.0, 1.0));
}

constexpr double kCfoMaxHz = 1500.0;  // SystemConfig::cfo_max_hz default

/// An envelope of arbitrary levels in (0, 1) with runs of exact zeros, so
/// the kernel's v·env products round (the tone and OFDM envelopes are 0/1).
class ShapedExcitation final : public ExcitationSource {
 public:
  std::string name() const override { return "shaped"; }
  void envelope(std::span<double> out, double, Rng& rng) const override {
    for (std::size_t s = 0; s < out.size(); ++s) {
      out[s] = (s / 37) % 3 == 1 ? 0.0 : rng.uniform(0.05, 1.0);
    }
  }
};

ChannelConfig kernel_config() {
  ChannelConfig cfg;
  cfg.samples_per_chip = 4;
  cfg.chip_rate_hz = 31e6;
  cfg.tail_pad_chips = 8.0;
  return cfg;
}

TEST(ChannelTagPathKernel, IntegerAndFractionalDelaysMatchPerSampleLoop) {
  const ContinuousTone tone;
  const std::vector<double> cfos{0.0, kCfoMaxHz, -kCfoMaxHz};
  // frac0 == 0: whole-sample delays (integer chips and quarter chips).
  const std::vector<double> whole{0.0, 3.0, 16.25, 40.5};
  expect_matches_per_sample_loop(kernel_config(), 331, whole, cfos, tone, 1);
  // frac0 != 0: sub-sample delays.
  const std::vector<double> sub{0.1, 3.37, 17.9, 40.61};
  expect_matches_per_sample_loop(kernel_config(), 331, sub, cfos, tone, 2);
}

TEST(ChannelTagPathKernel, ShortAndRaggedWindowsMatchPerSampleLoop) {
  const ContinuousTone tone;
  const std::vector<double> cfos{kCfoMaxHz, 0.0};
  ChannelConfig cfg = kernel_config();
  cfg.tail_pad_chips = 1.0;
  // Shorter than one 64-sample block: 3 chips plus the pad is ~20 samples.
  for (const double d : {0.0, 0.6}) {
    const std::vector<double> delays{d, d + 0.3};
    expect_matches_per_sample_loop(cfg, 3, delays, cfos, tone, 3);
  }
  // A window that is not a multiple of 64 samples, with more than one block.
  for (std::size_t chips : {15, 17, 33, 97}) {
    const std::vector<double> delays{0.0, 1.45, 2.0};
    expect_matches_per_sample_loop(cfg, chips, delays, cfos, tone, 4 + chips);
  }
}

TEST(ChannelTagPathKernel, BurstReachingLastSampleMatchesPerSampleLoop) {
  const ContinuousTone tone;
  const std::vector<double> cfos{-kCfoMaxHz, kCfoMaxHz};
  ChannelConfig cfg = kernel_config();
  cfg.tail_pad_chips = 0.0;
  for (std::size_t chips : {16, 50, 331}) {
    const std::vector<double> delays{0.0, 2.7, 5.0};
    expect_matches_per_sample_loop(cfg, chips, delays, cfos, tone, 20 + chips);
  }
}

TEST(ChannelTagPathKernel, SettlingAndMultipathMatchPerSampleLoop) {
  const ContinuousTone tone;
  const std::vector<double> cfos{0.0, kCfoMaxHz, -kCfoMaxHz};
  const std::vector<double> delays{0.0, 1.3, 9.0, 12.71};
  ChannelConfig settle = kernel_config();
  settle.impairments.switching.enabled = true;
  settle.impairments.switching.settle_chips = 0.3;
  expect_matches_per_sample_loop(settle, 257, delays, cfos, tone, 40);
  const ShapedExcitation shaped;
  expect_matches_per_sample_loop(settle, 257, delays, cfos, shaped, 43);
  ChannelConfig echoes = kernel_config();
  echoes.multipath.enabled = true;
  echoes.multipath.extra_taps = 3;
  expect_matches_per_sample_loop(echoes, 257, delays, cfos, tone, 41);
  echoes.tail_pad_chips = 0.0;
  expect_matches_per_sample_loop(echoes, 257, delays, cfos, tone, 42);
}

TEST(ChannelTagPathKernel, ZeroRunsInTheEnvelopeMatchPerSampleLoop) {
  // Excitation dropout gates the envelope to runs of exact zeros, and the
  // OFDM and shaped sources have zero runs of their own.
  ChannelConfig cfg = kernel_config();
  cfg.impairments.dropout.enabled = true;
  cfg.impairments.dropout.duty = 0.5;
  cfg.impairments.dropout.mean_burst_s = 2e-6;
  const std::vector<double> cfos{kCfoMaxHz, 0.0, -kCfoMaxHz};
  const std::vector<double> delays{0.0, 2.2, 7.0, 30.4};
  const ContinuousTone tone;
  expect_matches_per_sample_loop(cfg, 500, delays, cfos, tone, 50);
  const OfdmExcitation ofdm(3e-6, 2e-6);
  expect_matches_per_sample_loop(cfg, 500, delays, cfos, ofdm, 51);
  const ShapedExcitation shaped;
  expect_matches_per_sample_loop(cfg, 500, delays, cfos, shaped, 52);
}

}  // namespace
}  // namespace cbma::rfsim
