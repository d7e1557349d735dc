#include "rfsim/interference.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "rfsim/channel.h"
#include "util/stats.h"

namespace cbma::rfsim {
namespace {

double window_power(const std::vector<std::complex<double>>& iq) {
  double p = 0.0;
  for (const auto& s : iq) p += std::norm(s);
  return p / static_cast<double>(iq.size());
}

TEST(WifiInterferer, RejectsBadConfig) {
  EXPECT_THROW(WifiInterferer(-1.0), std::invalid_argument);
  EXPECT_THROW(WifiInterferer(1.0, 0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(WifiInterferer(1.0, 1e-3, 0.0), std::invalid_argument);
}

TEST(WifiInterferer, OccupancyFromDurations) {
  const WifiInterferer wifi(1.0, 500e-6, 1500e-6);
  EXPECT_DOUBLE_EQ(wifi.occupancy(), 0.25);
  EXPECT_EQ(wifi.name(), "wifi");
}

TEST(WifiInterferer, ZeroPowerAddsNothing) {
  const WifiInterferer wifi(0.0);
  Rng rng(1);
  std::vector<std::complex<double>> iq(1000, {0.0, 0.0});
  wifi.add_to(iq, 1e6, rng);
  EXPECT_DOUBLE_EQ(window_power(iq), 0.0);
}

TEST(WifiInterferer, AveragePowerTracksOccupancy) {
  const double power = 2.0;
  const WifiInterferer wifi(power, 500e-6, 1500e-6);
  Rng rng(2);
  std::vector<std::complex<double>> iq(400000, {0.0, 0.0});
  wifi.add_to(iq, 1e6, rng);
  // E[power] = burst power × occupancy.
  EXPECT_NEAR(window_power(iq), power * wifi.occupancy(), power * 0.06);
}

TEST(WifiInterferer, BurstsAreIntermittent) {
  const WifiInterferer wifi(1.0, 200e-6, 600e-6);
  Rng rng(3);
  std::vector<std::complex<double>> iq(50000, {0.0, 0.0});
  wifi.add_to(iq, 1e6, rng);
  std::size_t silent = 0;
  for (const auto& s : iq) {
    if (std::norm(s) == 0.0) ++silent;
  }
  // The CSMA channel must be idle a large fraction of the time.
  EXPECT_GT(silent, iq.size() / 2);
  EXPECT_LT(silent, iq.size());
}

TEST(BluetoothInterferer, RejectsBadConfig) {
  EXPECT_THROW(BluetoothInterferer(-1.0), std::invalid_argument);
  EXPECT_THROW(BluetoothInterferer(1.0, 80), std::invalid_argument);
  EXPECT_THROW(BluetoothInterferer(1.0, 4, 0.0), std::invalid_argument);
}

TEST(BluetoothInterferer, OccupancyIsChannelFraction) {
  const BluetoothInterferer bt(1.0, 4);
  EXPECT_NEAR(bt.occupancy(), 4.0 / 79.0, 1e-12);
  EXPECT_EQ(bt.name(), "bluetooth");
}

TEST(BluetoothInterferer, DwellGranularity) {
  // Energy must arrive in whole 625 µs dwells: at 1 MS/s a dwell is 625
  // samples; scan for the boundaries.
  const BluetoothInterferer bt(1.0, 79, 625e-6);  // always in-band
  Rng rng(4);
  std::vector<std::complex<double>> iq(6250, {0.0, 0.0});
  bt.add_to(iq, 1e6, rng);
  // With 79/79 overlap every dwell is hit: no silent samples.
  std::size_t silent = 0;
  for (const auto& s : iq) {
    if (std::norm(s) == 0.0) ++silent;
  }
  EXPECT_EQ(silent, 0u);
}

TEST(BluetoothInterferer, RareHitsWhenFewChannelsOverlap) {
  const BluetoothInterferer bt(1.0, 4);
  Rng rng(5);
  std::vector<std::complex<double>> iq(625 * 200, {0.0, 0.0});
  bt.add_to(iq, 1e6, rng);
  // Count hit dwells.
  std::size_t hit_dwells = 0;
  for (std::size_t d = 0; d < 200; ++d) {
    double p = 0.0;
    for (std::size_t i = 0; i < 625; ++i) p += std::norm(iq[d * 625 + i]);
    if (p > 0.0) ++hit_dwells;
  }
  EXPECT_NEAR(static_cast<double>(hit_dwells) / 200.0, 4.0 / 79.0, 0.06);
}

/// Forwards to a wrapped interferer. Channel does not recognise it as a
/// leakage tone, so it renders the wrapped tone in its own pass.
class Opaque final : public Interferer {
 public:
  explicit Opaque(const Interferer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void add_to(std::vector<std::complex<double>>& iq, double sample_rate_hz,
              Rng& rng) const override {
    inner_.add_to(iq, sample_rate_hz, rng);
  }
  double occupancy() const override { return inner_.occupancy(); }

 private:
  const Interferer& inner_;
};

/// add_run over `tones` vs add_to on each in turn: same window, same stream.
void expect_run_matches_per_tone(const std::vector<CarrierLeakageInterferer>& tones,
                                 std::size_t samples) {
  std::vector<const CarrierLeakageInterferer*> run;
  for (const auto& t : tones) run.push_back(&t);
  std::vector<std::complex<double>> fused(samples), serial(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    fused[s] = serial[s] = {1e-3 * static_cast<double>(s % 7), -2e-3};
  }
  Rng fused_rng(61), serial_rng(61);
  CarrierLeakageInterferer::add_run(run, fused, 124e6, fused_rng);
  for (const auto& t : tones) t.add_to(serial, 124e6, serial_rng);
  EXPECT_EQ(0, std::memcmp(fused.data(), serial.data(), samples * sizeof(fused[0])));
  EXPECT_TRUE(fused_rng.engine() == serial_rng.engine());
}

TEST(CarrierLeakageInterferer, SingleToneRunMatchesAddTo) {
  expect_run_matches_per_tone({CarrierLeakageInterferer(2e-9, 40.0)}, 26500);
}

TEST(CarrierLeakageInterferer, RunMatchesPerToneIncludingSilentTone) {
  // The zero-power tone draws no phase; the ones after it must not shift.
  expect_run_matches_per_tone({CarrierLeakageInterferer(3e-9, 40.0),
                               CarrierLeakageInterferer(0.0, 80.0),
                               CarrierLeakageInterferer(1e-10, -120.0),
                               CarrierLeakageInterferer(5e-11, 160.0)},
                              4096);
}

TEST(CarrierLeakageInterferer, RunLongerThanToneBankMatchesPerTone) {
  std::vector<CarrierLeakageInterferer> tones;
  for (int k = 0; k < 37; ++k) {
    tones.emplace_back(k % 5 == 0 ? 0.0 : 1e-9 / (k + 1), 40.0 * (k + 1));
  }
  expect_run_matches_per_tone(tones, 1000);
}

TEST(CarrierLeakageInterferer, ToneHasItsPowerOnEverySample) {
  const CarrierLeakageInterferer leak(4e-6, 1e3);
  EXPECT_DOUBLE_EQ(leak.occupancy(), 1.0);
  Rng rng(62);
  std::vector<std::complex<double>> iq(5000, {0.0, 0.0});
  leak.add_to(iq, 1e6, rng);
  for (const auto& s : iq) EXPECT_NEAR(std::norm(s), 4e-6, 1e-12);
}

TEST(CarrierLeakageInterferer, ChannelFusesRunsBitIdentically) {
  // Leakage runs split by a WiFi interferer: the channel renders each run in
  // one pass; wrapping every interferer forces one pass each.
  const CarrierLeakageInterferer a(2e-9, 40.0), b(1e-9, 80.0), c(0.0, 120.0),
      d(5e-10, 160.0);
  const WifiInterferer wifi(1e-9, 50e-6, 50e-6);
  const std::vector<const Interferer*> fused{&a, &b, &wifi, &c, &d};
  std::vector<Opaque> wrapped;
  for (const Interferer* itf : fused) wrapped.emplace_back(*itf);
  std::vector<const Interferer*> serial;
  for (const auto& w : wrapped) serial.push_back(&w);

  ChannelConfig cfg;
  cfg.noise_power_w = 1e-12;
  const Channel channel(cfg);
  const std::vector<std::uint8_t> chips(4000, 1);
  const TagTransmission tag{chips, 1e-4, 0.3, 2.5, 150.0};
  const ContinuousTone tone;
  Rng fused_rng(63), serial_rng(63);
  ChannelScratch fused_scratch, serial_scratch;
  std::vector<std::complex<double>> fused_iq, serial_iq;
  channel.receive_into({&tag, 1}, tone, fused, fused_rng, fused_scratch, fused_iq);
  channel.receive_into({&tag, 1}, tone, serial, serial_rng, serial_scratch, serial_iq);
  ASSERT_EQ(fused_iq.size(), serial_iq.size());
  EXPECT_EQ(0, std::memcmp(fused_iq.data(), serial_iq.data(),
                           fused_iq.size() * sizeof(fused_iq[0])));
  EXPECT_TRUE(fused_rng.engine() == serial_rng.engine());
}

TEST(Interferers, RejectBadSampleRate) {
  Rng rng(6);
  std::vector<std::complex<double>> iq(10);
  EXPECT_THROW(WifiInterferer(1.0).add_to(iq, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(BluetoothInterferer(1.0).add_to(iq, -1.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cbma::rfsim
