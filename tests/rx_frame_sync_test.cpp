#include "rx/frame_sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace cbma::rx {
namespace {

FrameSyncConfig small_config() {
  FrameSyncConfig cfg;
  cfg.window = 32;
  cfg.head_average = 4;
  return cfg;
}

std::vector<double> step_signal(std::size_t n, std::size_t step_at, double lo,
                                double hi) {
  std::vector<double> v(n, lo);
  for (std::size_t i = step_at; i < n; ++i) v[i] = hi;
  return v;
}

TEST(FrameSync, RejectsBadConfig) {
  FrameSyncConfig cfg = small_config();
  cfg.window = 1;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.head_average = 0;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.threshold_db = 0.0;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.min_baseline = 0.0;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
}

TEST(FrameSync, DetectsCleanStep) {
  const FrameSynchronizer sync(small_config());
  const auto sig = step_signal(200, 100, 0.01, 1.0);
  const auto hit = sync.detect(sig);
  ASSERT_TRUE(hit.has_value());
  // Trigger within head_average of the true edge.
  EXPECT_GE(*hit, 100u - small_config().head_average);
  EXPECT_LE(*hit, 101u);
}

TEST(FrameSync, SilentChannelNoDetection) {
  const FrameSynchronizer sync(small_config());
  const std::vector<double> sig(300, 0.02);
  EXPECT_FALSE(sync.detect(sig).has_value());
}

TEST(FrameSync, TooShortWindowNoDetection) {
  const FrameSynchronizer sync(small_config());
  const std::vector<double> sig(20, 1.0);
  EXPECT_FALSE(sync.detect(sig).has_value());
}

TEST(FrameSync, ThresholdIsThreeDbOnPower) {
  FrameSyncConfig cfg = small_config();
  cfg.threshold_db = 3.0;
  const FrameSynchronizer sync(cfg);
  // A power step just below 3 dB must NOT trigger; just above must.
  // (3 dB is the ratio 10^0.3 ≈ 1.995, slightly below a ×2 power step.)
  const auto no = step_signal(200, 100, 1.0, std::sqrt(2.0) * 0.997);
  EXPECT_FALSE(sync.detect(no).has_value());
  const auto yes = step_signal(200, 100, 1.0, std::sqrt(2.0) * 1.05);
  EXPECT_TRUE(sync.detect(yes).has_value());
}

TEST(FrameSync, BeginParameterSkipsEarlierEnergy) {
  const FrameSynchronizer sync(small_config());
  auto sig = step_signal(400, 100, 0.01, 1.0);
  // Second quiet region then a second step.
  for (std::size_t i = 150; i < 300; ++i) sig[i] = 0.01;
  for (std::size_t i = 300; i < 400; ++i) sig[i] = 1.0;
  const auto second = sync.detect(sig, 200);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(*second, 290u);
  EXPECT_LE(*second, 301u);
}

TEST(FrameSync, DetectAllFindsMultipleFrames) {
  const FrameSynchronizer sync(small_config());
  std::vector<double> sig(600, 0.01);
  for (std::size_t i = 100; i < 140; ++i) sig[i] = 1.0;
  for (std::size_t i = 400; i < 440; ++i) sig[i] = 1.0;
  const auto hits = sync.detect_all(sig, 100);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NEAR(static_cast<double>(hits[0]), 100.0, 5.0);
  EXPECT_NEAR(static_cast<double>(hits[1]), 400.0, 5.0);
}

TEST(FrameSync, RefractorySuppressesRetriggers) {
  const FrameSynchronizer sync(small_config());
  std::vector<double> sig(400, 0.01);
  for (std::size_t i = 100; i < 160; ++i) sig[i] = 1.0 + 0.2 * (i % 3);
  const auto hits = sync.detect_all(sig, 300);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(FrameSync, RobustToGaussianNoiseFloor) {
  // With a realistic noise floor the detector must fire in the frame
  // region, not wildly early.
  cbma::Rng rng(42);
  FrameSyncConfig cfg;
  cfg.window = 128;
  cfg.head_average = 16;
  const FrameSynchronizer sync(cfg);
  int fired = 0;
  int fired_near_edge = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> sig(600);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      const double noise = std::abs(rng.gaussian(0.0, 0.1));
      sig[i] = (i >= 300) ? 1.0 + noise : noise;
    }
    const auto hit = sync.detect(sig);
    if (hit) {
      ++fired;
      // Never later than the edge plus the head window; noise spikes may
      // fire earlier (the receiver's wide correlation search absorbs that).
      EXPECT_LE(*hit, 305u);
      if (*hit >= 280) ++fired_near_edge;
    }
  }
  EXPECT_EQ(fired, 50);
  EXPECT_GE(fired_near_edge, 20);
}

TEST(FrameSync, GradualRampStillTriggers) {
  const FrameSynchronizer sync(small_config());
  std::vector<double> sig(300, 0.01);
  for (std::size_t i = 100; i < 300; ++i) {
    sig[i] = 0.01 + 0.05 * static_cast<double>(i - 100);
  }
  EXPECT_TRUE(sync.detect(sig).has_value());
}

// --- Numerics of the comparator on long streams (DESIGN.md §10) -----------
//
// A loud history, then a 100,000-sample quiet stretch, walked one push at a
// time with every position examined (re-armed one past each trigger) and
// checked against a long-double shadow. Every magnitude is k/64 for an
// integer k, so each power m² is a multiple of 2⁻¹² that the double squaring
// gets exactly, and the shadow's sliding window sums (all below 2⁴¹) are
// exact in the 64-bit long-double mantissa.
//
// The stated bound (FrameSynchronizer::Stream::average): with u = 2⁻⁵³, the
// mean over a window of n samples is within (n + k + 4)·u·E/n of the exact
// mean, where k counts the rebase boundaries the window crosses and E is the
// energy from the start of the rebase interval holding the window's first
// prefix value to the newest sample. Comparator windows cross at most one
// boundary, so E spans at most two intervals however long the history; they
// are held here to the tighter (n + 4).

struct ShadowReport {
  double worst_error_over_bound = 0.0;  ///< max |average − exact| / bound
  double worst_quiet_baseline_error = 0.0;  ///< max relative, quiet baselines
  std::size_t quiet_positions = 0;          ///< baseline entirely quiet
  std::size_t nonpositive_baselines = 0;    ///< of those, average ≤ 0
  std::size_t decisions_checked = 0;        ///< margin outside the bound
  std::size_t decision_mismatches = 0;      ///< of those, stream ≠ shadow
};

ShadowReport run_against_shadow(std::uint64_t loud_samples, double loud_db) {
  const FrameSyncConfig cfg;  // paper defaults: W = 128, head 16, 3 dB
  const FrameSynchronizer sync(cfg);
  FrameSynchronizer::Stream stream(sync);
  const std::uint64_t w = cfg.window;
  const std::uint64_t h = cfg.head_average;
  const long double ratio = units::from_db(cfg.threshold_db);
  const long double inv_w = 1.0L / static_cast<long double>(w);  // exact: 2⁻⁷
  const long double inv_h = 1.0L / static_cast<long double>(h);  // exact: 2⁻⁴
  constexpr std::uint64_t kQuiet = 100'000;
  constexpr std::uint64_t kInterval = FrameSynchronizer::Stream::kRebaseInterval;
  constexpr long double kU = 0x1p-53L;

  // Loud magnitudes are integers within ±10 % of 10^(dB/20); quiet ones lie
  // in [0.5, 1.5] (power ≈ 1), with a 300-sample burst 10 dB up closing
  // every 10,000 so the quiet stretch holds true triggers too.
  const auto loud = static_cast<std::uint64_t>(std::pow(10.0, loud_db / 20.0));
  std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
  const auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(lo + (((lcg >> 32) * (hi - lo + 1)) >> 32));
  };

  std::array<double, 256> power{};      // m² by position (ring)
  std::array<long double, 2> energy{};  // per rebase interval (ring)
  long double base = 0.0L, head1 = 0.0L, head2 = 0.0L;  // sums ending at p + 1
  const auto at = [&](std::uint64_t pos) { return power[pos & 255]; };

  ShadowReport out;
  for (std::uint64_t p = 0; p < loud_samples + kQuiet; ++p) {
    const bool burst = p >= loud_samples && (p - loud_samples) % 10'000 >= 9'700;
    const double m = p < loud_samples ? draw(loud * 9 / 10, loud * 11 / 10)
                     : burst          ? draw(192, 256) / 64.0
                                      : draw(32, 96) / 64.0;
    stream.push(m);
    const std::uint64_t k = p / kInterval;
    if (p % kInterval == 0) energy[k & 1] = 0.0L;
    energy[k & 1] += m * m;
    power[p & 255] = m * m;
    head2 += m * m;
    if (p >= h) head2 -= at(p - h), head1 += at(p - h);
    if (p >= 2 * h) head1 -= at(p - 2 * h), base += at(p - 2 * h);
    if (p >= 2 * h + w) base -= at(p - 2 * h - w);

    const std::uint64_t s = stream.cursor();
    if (s + 2 * h != p + 1) continue;  // first complete position not reached

    // Compared as sums (got·n is exact in long double); returns the average
    // and the bound on the sum.
    const auto check = [&](std::uint64_t lo, std::uint64_t n, long double sum) {
      const bool two_intervals = lo > 0 && (lo - 1) / kInterval < k;
      const long double e = two_intervals ? energy[k & 1] + energy[(k - 1) & 1] : energy[k & 1];
      const auto nl = static_cast<long double>(static_cast<int>(n));
      const double got = stream.average(lo, lo + n);
      const long double error = std::fabs(got * nl - sum);
      const long double bound = (nl + 4) * kU * e;
      if (error > out.worst_error_over_bound * bound) {
        out.worst_error_over_bound = static_cast<double>(error / bound);
      }
      return std::pair{got, bound};
    };
    const auto [base_got, base_bound] = check(s - w, w, base);
    const long double h1_bound = check(s, h, head1).second;
    const long double h2_bound = check(s + h, h, head2).second;

    const auto fired = stream.scan();  // examines exactly position s
    if (fired) stream.rearm(*fired + 1 - w);
    stream.release(stream.cursor() - w);
    const long double head = std::min(head1, head2) * inv_h;
    const long double floor = std::max<long double>(base * inv_w, cfg.min_baseline);
    const long double margin = head - ratio * floor;
    const long double slack = std::max(h1_bound, h2_bound) * inv_h +
                              ratio * base_bound * inv_w + 4 * kU * (head + ratio * floor);
    if (std::fabs(margin) > slack) {
      ++out.decisions_checked;
      if (fired.has_value() != (margin > 0) || (fired && *fired != s)) {
        ++out.decision_mismatches;
      }
    }
    if (s >= loud_samples + w) {
      ++out.quiet_positions;
      if (base_got <= 0.0) ++out.nonpositive_baselines;
      const long double exact = base * inv_w;
      out.worst_quiet_baseline_error = std::max(
          out.worst_quiet_baseline_error,
          static_cast<double>(std::fabs(base_got - exact) / exact));
    }
  }
  return out;
}

// push_n is push() in a register-held loop: over runs of every length that
// cross a rebase boundary, every window average and the comparator agree
// bit for bit with sample-by-sample pushes.
TEST(FrameSyncStream, PushNMatchesElementwisePushes) {
  const FrameSynchronizer sync(small_config());
  FrameSynchronizer::Stream by_one(sync);
  FrameSynchronizer::Stream by_run(sync);
  Rng rng(21);
  std::vector<double> mags(FrameSynchronizer::Stream::kRebaseInterval + 5000);
  for (auto& m : mags) m = std::abs(rng.gaussian()) * 1e3;
  for (std::size_t i = 0; i < mags.size();) {
    const auto n = std::min<std::size_t>(static_cast<std::size_t>(rng.uniform_int(0, 3000)),
                                         mags.size() - i);
    for (std::size_t k = 0; k < n; ++k) by_one.push(mags[i + k]);
    const double* run = mags.data() + i;
    by_run.push_n(n, [run](std::size_t k) { return run[k]; });
    i += n;
    ASSERT_EQ(by_run.position(), by_one.position());
  }
  for (std::uint64_t hi = 1; hi <= by_one.position(); hi += 97) {
    for (const std::uint64_t span : {std::uint64_t{1}, std::uint64_t{4}, std::uint64_t{32}}) {
      if (span > hi) continue;
      const double a = by_one.average(hi - span, hi);
      const double b = by_run.average(hi - span, hi);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "window ending at " << hi;
    }
  }
  EXPECT_EQ(by_run.scan(), by_one.scan());
}

// 80 dB of loud history, 2^16 to 2^24 samples long (and one history ending
// mid-interval, so quiet windows share an interval with loud samples): every
// window average stays inside the stated bound, which depends on at most two
// rebase intervals, never on the history length.
TEST(FrameSyncStream, WindowAverageErrorIsBoundedWhateverTheHistory) {
  for (const std::uint64_t loud : {std::uint64_t{1} << 16, std::uint64_t{1} << 20,
                                   std::uint64_t{1} << 24,
                                   (std::uint64_t{1} << 20) + (std::uint64_t{1} << 15)}) {
    const ShadowReport r = run_against_shadow(loud, 80.0);
    EXPECT_LE(r.worst_error_over_bound, 1.0) << "history " << loud;
    EXPECT_EQ(r.decision_mismatches, 0u) << "history " << loud;
    EXPECT_LT(r.worst_quiet_baseline_error, 1e-3) << "history " << loud;
  }
}

// 100 dB × 2^24 samples, then quiet: every quiet baseline stays positive
// (a baseline that rounds to zero is floored at min_baseline, which any
// head beats — a false trigger), and every comparator decision whose exact
// margin lies outside the bound matches the shadow.
TEST(FrameSyncStream, LoudThenQuietMatchesTheShadow) {
  const ShadowReport r = run_against_shadow(std::uint64_t{1} << 24, 100.0);
  EXPECT_EQ(r.quiet_positions, 100'000u - 128u - 32u + 1u);
  EXPECT_EQ(r.nonpositive_baselines, 0u);
  EXPECT_GT(r.decisions_checked, r.quiet_positions);
  EXPECT_EQ(r.decision_mismatches, 0u);
  EXPECT_LE(r.worst_error_over_bound, 1.0);
}

// A span longer than one rebase interval adds the closing total of every
// boundary it crosses: spans over two, three and four boundaries match a
// long-double direct sum within the stated (n + k + 4)·u·E/n.
TEST(FrameSyncStream, AverageSpansEveryRebaseBoundary) {
  constexpr std::uint64_t kInterval = FrameSynchronizer::Stream::kRebaseInterval;
  const FrameSynchronizer sync(small_config());
  FrameSynchronizer::Stream stream(sync);
  Rng rng(29);
  std::vector<double> power(3 * kInterval + kInterval / 2);
  for (auto& p : power) {
    const double m = std::abs(rng.gaussian()) * 1e3;
    stream.push(m);
    p = m * m;
  }
  struct Span {
    std::uint64_t lo, hi, boundaries;
  };
  for (const auto& [lo, hi, k] :
       {Span{kInterval - 1, 2 * kInterval + 1, 2},
        Span{kInterval / 2, 3 * kInterval + 100, 3},
        Span{0, stream.position(), 4}}) {
    long double exact = 0.0L;
    for (std::uint64_t i = lo; i < hi; ++i) exact += power[i];
    long double energy = 0.0L;  // from the start of lo's interval to hi
    for (std::uint64_t i = lo & ~(kInterval - 1); i < hi; ++i) energy += power[i];
    const auto n = static_cast<long double>(hi - lo);
    const long double bound =
        (n + static_cast<long double>(k) + 4) * 0x1p-53L * energy / n;
    EXPECT_LE(std::fabs(stream.average(lo, hi) - exact / n), bound)
        << "[" << lo << ", " << hi << ")";
  }
}

}  // namespace
}  // namespace cbma::rx
