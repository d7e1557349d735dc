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

namespace {

/// Samples per oscillator block (see add_tag_path).
constexpr std::size_t kBlock = 64;

/// One rotation block of a tag path: out[2j], out[2j+1] += (g·rot[j]) ·
/// (v[j]·env[j]), with g·rot[j] = (br·tr[j] − bi·ti[j], br·ti[j] + bi·tr[j])
/// — the operations and order of the std::complex expression
/// `(g * rot[j]) * (v[j] * env[j])`, one sample per lane. v[j] is wf[j], or with `kInterp` the two-tap blend
/// wf[j−1]·w_prev + wf[j]·w_cur. No branch on v[j] == 0: adding the ±0 such
/// a sample yields leaves every accumulator unchanged, because `iq` enters
/// the tag stage at +0.0 and a round-to-nearest sum of tag terms never
/// produces −0.0.
template <bool kInterp>
void add_block(double* __restrict out, const double* __restrict env,
               const double* __restrict wf, const double* __restrict tr,
               const double* __restrict ti, double br, double bi, double w_prev,
               double w_cur, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    const double gr = br * tr[j] - bi * ti[j];
    const double gi = br * ti[j] + bi * tr[j];
    const double v = kInterp ? wf[j - 1] * w_prev + wf[j] * w_cur : wf[j];
    const double a = v * env[j];
    out[2 * j] += gr * a;
    out[2 * j + 1] += gi * a;
  }
}

}  // namespace

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
  if (last <= first) return;
  const bool interp = frac0 != 0.0;
  const double w_prev = frac0;
  const double w_cur = 1.0 - frac0;

  // The naive oscillator update gain *= rotator is a serial dependency at
  // FP-multiply latency for every sample of the burst. Factor the rotation
  // as rotator^(B·blk + j) = rot_block^blk · rotator^j: the per-sample
  // multiplications become independent, and only one multiply per block
  // stays serial. The rotator^j table is held as re/im arrays so a block's
  // samples run across SIMD lanes (add_block).
  double tr[kBlock];
  double ti[kBlock];
  std::complex<double> r{1.0, 0.0};
  for (std::size_t j = 0; j < kBlock; ++j) {
    tr[j] = r.real();
    ti[j] = r.imag();
    r *= rotator;
  }
  const std::complex<double> rot_block = r;  // rotator^kBlock
  std::complex<double> gain_block = gain;    // oscillator state at block start

  double* const out = reinterpret_cast<double*>(iq.data());
  const double* const wf = waveform.data();
  const std::size_t count = last - first;
  double v[kBlock];
  for (std::size_t k0 = 0; k0 < count; k0 += kBlock) {
    if (k0 != 0) gain_block *= rot_block;
    const std::size_t len = std::min(kBlock, count - k0);
    const double br = gain_block.real();
    const double bi = gain_block.imag();
    double* const o = out + 2 * (first + k0);
    const double* const env = envelope.data() + first + k0;
    if (k0 >= static_cast<std::size_t>(interp) && k0 + len <= n) {
      // Interior block: every tap falls inside the waveform.
      if (interp) {
        add_block<true>(o, env, wf + k0, tr, ti, br, bi, w_prev, w_cur, len);
      } else {
        add_block<false>(o, env, wf + k0, tr, ti, br, bi, w_prev, w_cur, len);
      }
      continue;
    }
    // Edge block (the burst's first block when interpolating, and the
    // blocks past its end): taps outside the waveform read 0. It runs
    // through the same block loop rather than a per-sample path: on FMA
    // targets GCC 12 fuses a lone sample's complex product into vfmaddsub
    // even under -ffp-contract=off.
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t k = k0 + j;
      if (interp) {
        const double prev = (k >= 1 && k - 1 < n) ? wf[k - 1] : 0.0;
        const double cur = k < n ? wf[k] : 0.0;
        v[j] = prev * w_prev + cur * w_cur;
      } else {
        v[j] = k < n ? wf[k] : 0.0;
      }
    }
    add_block<false>(o, env, v, tr, ti, br, bi, w_prev, w_cur, len);
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
    // The level comes from a table, not a select: GCC compiles
    // `c ? 1.0 : 0.0` to a branch per chip, which random chips mispredict
    // about half the time.
    static constexpr double kLevel[2] = {0.0, 1.0};
    double* w = scratch.waveform.data();
    for (const auto c : tag.chips) {
      const double v = kLevel[c != 0];
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
