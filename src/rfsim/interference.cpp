#include "rfsim/interference.h"

#include <algorithm>
#include <cmath>

#include "rfsim/noise.h"
#include "util/expect.h"

namespace cbma::rfsim {
namespace {

/// Add complex Gaussian energy of total power `power_w` to iq[begin, end):
/// one normal stream per burst.
void add_burst(std::vector<std::complex<double>>& iq, std::size_t begin, std::size_t end,
               double power_w, Rng& rng) {
  AwgnSource(power_w).add_to(std::span(iq).subspan(begin, end - begin), rng);
}

}  // namespace

WifiInterferer::WifiInterferer(double power_w, double mean_frame_s, double mean_idle_s)
    : power_w_(power_w), mean_frame_s_(mean_frame_s), mean_idle_s_(mean_idle_s) {
  CBMA_REQUIRE(power_w >= 0.0, "negative interference power");
  CBMA_REQUIRE(mean_frame_s > 0.0 && mean_idle_s > 0.0, "durations must be positive");
}

double WifiInterferer::occupancy() const {
  return mean_frame_s_ / (mean_frame_s_ + mean_idle_s_);
}

void WifiInterferer::add_to(std::vector<std::complex<double>>& iq, double sample_rate_hz,
                            Rng& rng) const {
  CBMA_REQUIRE(sample_rate_hz > 0.0, "sample rate must be positive");
  if (power_w_ <= 0.0) return;
  std::size_t pos = 0;
  bool busy = rng.bernoulli(occupancy());
  while (pos < iq.size()) {
    const double duration_s = rng.exponential(busy ? mean_frame_s_ : mean_idle_s_);
    const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(duration_s * sample_rate_hz));
    const std::size_t end = std::min(iq.size(), pos + n);
    if (busy) add_burst(iq, pos, end, power_w_, rng);
    pos = end;
    busy = !busy;
  }
}

CarrierLeakageInterferer::CarrierLeakageInterferer(double power_w,
                                                   double freq_offset_hz,
                                                   std::string source)
    : power_w_(power_w), freq_offset_hz_(freq_offset_hz), source_(std::move(source)) {
  CBMA_REQUIRE(power_w >= 0.0, "negative interference power");
}

void CarrierLeakageInterferer::add_to(std::vector<std::complex<double>>& iq,
                                      double sample_rate_hz, Rng& rng) const {
  const CarrierLeakageInterferer* self = this;
  add_run({&self, 1}, iq, sample_rate_hz, rng);
}

void CarrierLeakageInterferer::add_run(std::span<const CarrierLeakageInterferer* const> run,
                                       std::vector<std::complex<double>>& iq,
                                       double sample_rate_hz, Rng& rng) {
  CBMA_REQUIRE(sample_rate_hz > 0.0, "sample rate must be positive");
  // Tone bank in structure-of-arrays form. A run longer than the bank is
  // rendered bank by bank; per-sample addition order is run order either way.
  constexpr std::size_t kBank = 16;
  double re[kBank] = {}, im[kBank] = {}, rot_re[kBank] = {}, rot_im[kBank] = {};
  for (std::size_t next = 0; next < run.size();) {
    std::size_t m = 0;
    for (; next < run.size() && m < kBank; ++next) {
      const CarrierLeakageInterferer& leak = *run[next];
      if (leak.power_w_ <= 0.0) continue;  // silent tones draw no phase
      const double phase0 = rng.phase();
      const double dphi =
          2.0 * 3.14159265358979323846 * leak.freq_offset_hz_ / sample_rate_hz;
      const std::complex<double> tone = std::polar(std::sqrt(leak.power_w_), phase0);
      const std::complex<double> rot = std::polar(1.0, dphi);
      re[m] = tone.real();
      im[m] = tone.imag();
      rot_re[m] = rot.real();
      rot_im[m] = rot.imag();
      ++m;
    }
    if (m == 0) break;  // only silent tones were left
    // Coherent tones: rotate incrementally instead of calling sin/cos per
    // sample (the offsets are tiny relative to the sample rate, so the
    // recurrence stays numerically clean over a window). The update is
    // written out as tone *= rot, so each tone's samples are bit-identical
    // to its own serial pass; the tones' chains run side by side.
    for (auto& s : iq) {
      double acc_re = s.real();
      double acc_im = s.imag();
      for (std::size_t k = 0; k < m; ++k) {
        acc_re += re[k];
        acc_im += im[k];
        const double r = re[k] * rot_re[k] - im[k] * rot_im[k];
        im[k] = re[k] * rot_im[k] + im[k] * rot_re[k];
        re[k] = r;
      }
      s = {acc_re, acc_im};
    }
  }
}

BluetoothInterferer::BluetoothInterferer(double power_w, unsigned overlap_channels,
                                         double dwell_s)
    : power_w_(power_w), overlap_channels_(overlap_channels), dwell_s_(dwell_s) {
  CBMA_REQUIRE(power_w >= 0.0, "negative interference power");
  CBMA_REQUIRE(overlap_channels <= kChannels, "more overlap channels than BT has");
  CBMA_REQUIRE(dwell_s > 0.0, "dwell must be positive");
}

double BluetoothInterferer::occupancy() const {
  return static_cast<double>(overlap_channels_) / static_cast<double>(kChannels);
}

void BluetoothInterferer::add_to(std::vector<std::complex<double>>& iq,
                                 double sample_rate_hz, Rng& rng) const {
  CBMA_REQUIRE(sample_rate_hz > 0.0, "sample rate must be positive");
  if (power_w_ <= 0.0) return;
  const auto dwell_samples =
      std::max<std::size_t>(1, static_cast<std::size_t>(dwell_s_ * sample_rate_hz));
  for (std::size_t pos = 0; pos < iq.size(); pos += dwell_samples) {
    if (!rng.bernoulli(occupancy())) continue;
    const std::size_t end = std::min(iq.size(), pos + dwell_samples);
    add_burst(iq, pos, end, power_w_, rng);
  }
}

}  // namespace cbma::rfsim
