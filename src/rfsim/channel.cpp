#include "rfsim/channel.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/probe.h"
#include "util/telemetry.h"
#include "util/units.h"

namespace cbma::rfsim {

Channel::Channel(ChannelConfig config)
    : config_(config), impairments_(config.impairments) {
  CBMA_REQUIRE(config_.samples_per_chip >= 1, "samples_per_chip must be positive");
  CBMA_REQUIRE(config_.chip_rate_hz > 0.0, "chip rate must be positive");
  CBMA_REQUIRE(config_.noise_power_w >= 0.0, "negative noise power");
  CBMA_REQUIRE(config_.tail_pad_chips >= 0.0, "negative tail pad");
}

double Channel::sample_rate_hz() const {
  return config_.chip_rate_hz * static_cast<double>(config_.samples_per_chip);
}

void Channel::add_tag_path(std::vector<std::complex<double>>& iq,
                           std::span<const double> waveform, double amplitude_scale,
                           double phase, double delay_chips, double freq_offset_hz,
                           std::span<const double> envelope) const {
  const auto spc = static_cast<double>(config_.samples_per_chip);
  const double delay_samples = delay_chips * spc;
  std::complex<double> gain =
      amplitude_scale * std::complex<double>(std::cos(phase), std::sin(phase));
  // Per-sample oscillator rotation for the tag's residual frequency offset.
  const double dphi = 2.0 * units::kPi * freq_offset_hz / sample_rate_hz();
  const std::complex<double> rotator(std::cos(dphi), std::sin(dphi));
  const std::size_t n = waveform.size();

  // The fractional part of the delay is constant over the burst, so the
  // linear interpolation collapses to a fixed two-tap filter over the
  // pre-expanded per-sample waveform: sample s blends expansion samples
  // (s-first-1, s-first) with constant weights. No per-sample division,
  // floor or branch on the chip index.
  const auto first = static_cast<std::size_t>(std::floor(delay_samples));
  const double frac0 = delay_samples - static_cast<double>(first);
  const std::size_t last = std::min(iq.size(), first + n + 2);

  // The naive oscillator update gain *= rotator is a serial dependency at
  // FP-multiply latency for every sample of the burst. Factor the rotation
  // as rotator^(B·blk + j) = rot_block^blk · rot_table[j]: the per-sample
  // multiplications become independent (pipelined), only one multiply per
  // block stays serial, and absorbed ('0') chips skip the rotation math
  // entirely.
  constexpr std::size_t kBlock = 64;
  std::complex<double> rot_table[kBlock];
  std::complex<double> r{1.0, 0.0};
  for (auto& entry : rot_table) {
    entry = r;
    r *= rotator;
  }
  const std::complex<double> rot_block = r;  // rotator^kBlock
  std::complex<double> gain_block = gain;    // oscillator state at block start

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

void Channel::receive_into(std::span<const TagTransmission> tags,
                           const ExcitationSource& excitation,
                           std::span<const Interferer* const> interferers, Rng& rng,
                           ChannelScratch& scratch,
                           std::vector<std::complex<double>>& iq) const {
  const telemetry::ScopedSpan span(telemetry::Span::kChannelSynthesis);
  // Window length: the latest-ending tag burst plus the tail pad.
  double latest_end_chips = 0.0;
  for (const auto& t : tags) {
    CBMA_REQUIRE(t.delay_chips >= 0.0, "tag delay must be non-negative");
    latest_end_chips = std::max(
        latest_end_chips, t.delay_chips + static_cast<double>(t.chips.size()));
  }
  const auto n_samples = static_cast<std::size_t>(
      std::ceil((latest_end_chips + config_.tail_pad_chips) *
                static_cast<double>(config_.samples_per_chip)));
  iq.assign(n_samples, {0.0, 0.0});
  telemetry::count(telemetry::Counter::kChannelWindows);
  telemetry::count(telemetry::Counter::kChannelSamples, n_samples);
  if (n_samples == 0) return;

  scratch.envelope.assign(n_samples, 1.0);
  excitation.envelope(scratch.envelope, sample_rate_hz(), rng);
  // Injected excitation dropout gates whatever envelope the source produced
  // (a tone turns bursty; an OFDM source loses additional air time).
  impairments_.gate_excitation(scratch.envelope, sample_rate_hz(), rng);
  // Signal-probe tap: the excitation envelope as the tags actually see it
  // (source shape × dropout gating). Strict no-op when probing is off.
  probe::record_tap(probe::Tap::kExcitationEnvelope, 0, scratch.envelope);

  for (const auto& tag : tags) {
    // Expand the chip sequence to per-sample 0/1 values once per tag; the
    // line-of-sight path and every multipath echo reuse the expansion.
    scratch.waveform.resize(tag.chips.size() * config_.samples_per_chip);
    double* w = scratch.waveform.data();
    for (const auto c : tag.chips) {
      const double v = c ? 1.0 : 0.0;
      for (std::size_t s = 0; s < config_.samples_per_chip; ++s) *w++ = v;
    }
    impairments_.settle_waveform(scratch.waveform, config_.samples_per_chip);

    add_tag_path(iq, scratch.waveform, tag.amplitude, tag.phase, tag.delay_chips,
                 tag.freq_offset_hz, scratch.envelope);
    if (config_.multipath.enabled) {
      const double mean_echo_amp =
          units::amplitude_from_db(config_.multipath.relative_power_db);
      for (unsigned k = 0; k < config_.multipath.extra_taps; ++k) {
        // Rayleigh echo amplitude with the configured mean power.
        const double a = std::abs(rng.gaussian(0.0, mean_echo_amp)) * tag.amplitude;
        const double extra = rng.uniform(0.0, config_.multipath.max_excess_delay_chips);
        add_tag_path(iq, scratch.waveform, a, rng.phase(), tag.delay_chips + extra,
                     tag.freq_offset_hz, scratch.envelope);
      }
    }
  }

  // Each maximal run of consecutive leakage tones is rendered in one pass
  // over the window (bit-identical to one pass per tone); every other
  // interferer adds itself.
  for (std::size_t i = 0; i < interferers.size();) {
    CBMA_ASSERT(interferers[i] != nullptr);
    scratch.leakage_run.clear();
    for (; i < interferers.size(); ++i) {
      const auto* leak = dynamic_cast<const CarrierLeakageInterferer*>(interferers[i]);
      if (leak == nullptr) break;
      scratch.leakage_run.push_back(leak);
    }
    if (!scratch.leakage_run.empty()) {
      CarrierLeakageInterferer::add_run(scratch.leakage_run, iq, sample_rate_hz(), rng);
    } else {
      interferers[i++]->add_to(iq, sample_rate_hz(), rng);
    }
  }

  AwgnSource(config_.noise_power_w).add_to(iq, rng);
  // Receiver-side impairments see the fully composed antenna signal:
  // impulsive bursts add on top of noise, then the ADC clips and quantizes.
  impairments_.distort_rx(iq, sample_rate_hz(), rng);
  // Signal-probe tap: the composite IQ window exactly as handed to the
  // receiver — every tag path, interferer, noise and RX distortion applied.
  probe::record_tap_iq(probe::Tap::kCompositeIq, 0, iq);
}

std::vector<std::complex<double>> Channel::receive(std::span<const TagTransmission> tags,
                                                   Rng& rng) const {
  const ContinuousTone tone;
  ChannelScratch scratch;
  std::vector<std::complex<double>> iq;
  receive_into(tags, tone, {}, rng, scratch, iq);
  return iq;
}

}  // namespace cbma::rfsim
