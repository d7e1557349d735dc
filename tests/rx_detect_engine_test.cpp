// Dual-path equivalence of the detection correlation engines (DESIGN.md
// §9.3): the FFT engine must reproduce the naive engine's peaks — same
// winning offsets, bit-identical values/phases at those offsets (winners
// are re-scored with the exact folded dot) — across code length, family
// size, CFO and SNR, at the engine level and through the full detector
// (SIC included). Plus the auto engine's crossover policy introspection.
#include "rx/correlation_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "phy/tag.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "rx/user_detect.h"
#include "simd_paths.h"
#include "util/rng.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kPreambleBits = 8;

/// Independent standard normals in both components of a split window.
void fill_normal(Rng& rng, std::vector<double>& re, std::vector<double>& im) {
  NormalStream normal = rng.normal_stream();
  for (std::size_t i = 0; i < re.size(); ++i) {
    re[i] = normal();
    im[i] = normal();
  }
}

std::vector<std::vector<double>> random_chip_templates(std::size_t n_codes,
                                                       std::size_t chips,
                                                       Rng& rng) {
  std::vector<std::vector<double>> tmpls(n_codes);
  for (auto& t : tmpls) {
    t.resize(chips);
    for (auto& v : t) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
  }
  return tmpls;
}

void expect_same_peaks(const pn::ComplexCorrelationPeak& naive,
                       const pn::ComplexCorrelationPeak& fft,
                       const std::string& context) {
  EXPECT_EQ(naive.offset, fft.offset) << context;
  // Winning offsets are re-scored with the exact folded dot, so agreement
  // on the offset implies bit-identical value and phase.
  EXPECT_EQ(naive.value, fft.value) << context;
  EXPECT_EQ(naive.phase, fft.phase) << context;
}

/// Engine-level equivalence on random windows: every code, assorted search
/// ranges (aligned and unaligned to the chip grid, clamped, degenerate).
TEST(CorrelationEngine, FftMatchesNaiveOnRandomWindows) {
  Rng rng(11);
  for (const std::size_t spc : {1u, 4u}) {
    for (const std::size_t chips : {16u, 100u, 256u}) {
      for (const std::size_t n_codes : {1u, 3u, 8u}) {
        const auto tmpls = random_chip_templates(n_codes, chips, rng);
        const std::size_t n = chips * spc;
        std::vector<double> re(n + 300), im(n + 300);
        fill_normal(rng, re, im);
        std::vector<double> fold_re, fold_im;
        pn::fold_chip_sums(re, spc, fold_re);
        pn::fold_chip_sums(im, spc, fold_im);
        const CorrelationWindow window{re, im, fold_re, fold_im, spc};

        const auto naive =
            make_correlation_engine(DetectEngine::kNaive, tmpls, spc, 128);
        const auto fft =
            make_correlation_engine(DetectEngine::kFft, tmpls, spc, 128);
        const auto ns = naive->make_scratch();
        const auto fs = fft->make_scratch();
        std::vector<std::size_t> idx(n_codes);
        for (std::size_t i = 0; i < n_codes; ++i) idx[i] = i;
        std::vector<pn::ComplexCorrelationPeak> np(n_codes), fp(n_codes);

        const std::size_t max_off = re.size() - n + 1;
        const std::tuple<std::size_t, std::size_t, const char*> ranges[] = {
            {0, 301, "full window"},
            {7, 123, "unaligned begin"},
            {0, 1, "single lag"},
            {13, 14, "single unaligned lag"},
            {250, 100000, "end clamped"},
            {40, 40, "empty range"},
            {max_off + 50, max_off + 60, "begin past clamp"},
        };
        for (const auto& [begin, end, label] : ranges) {
          naive->peaks(window, idx, begin, end, np, *ns);
          fft->peaks(window, idx, begin, end, fp, *fs);
          for (std::size_t k = 0; k < n_codes; ++k) {
            expect_same_peaks(
                np[k], fp[k],
                std::string(label) + " spc=" + std::to_string(spc) +
                    " chips=" + std::to_string(chips) + " code=" +
                    std::to_string(k));
          }
        }
      }
    }
  }
}

TEST(CorrelationEngine, WindowShorterThanTemplateYieldsDefaults) {
  Rng rng(12);
  const auto tmpls = random_chip_templates(2, 64, rng);
  const std::size_t spc = 4;
  std::vector<double> re(64 * spc - 1), im(re.size());  // one sample short
  fill_normal(rng, re, im);
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, spc, fold_re);
  pn::fold_chip_sums(im, spc, fold_im);
  const CorrelationWindow window{re, im, fold_re, fold_im, spc};
  for (const auto kind : {DetectEngine::kNaive, DetectEngine::kFft}) {
    const auto engine = make_correlation_engine(kind, tmpls, spc, 64);
    const auto scratch = engine->make_scratch();
    std::vector<std::size_t> idx{0, 1};
    std::vector<pn::ComplexCorrelationPeak> out(2);
    engine->peaks(window, idx, 0, 100, out, *scratch);
    for (const auto& p : out) {
      EXPECT_EQ(p.offset, 0u);
      EXPECT_EQ(p.value, 0.0);
      EXPECT_EQ(p.phase, 0.0);
    }
  }
}

/// Full-detector equivalence sweep: code length × family size × CFO × SNR.
/// The FFT- and auto-engine detectors must report the identical DetectedUser
/// set — same codes, same offsets — with correlations and margins matching
/// the naive reference to within the §9.3 tolerance (exact at agreeing
/// offsets, hence the tight bound).
TEST(CorrelationEngine, DetectorEquivalenceSweep) {
  struct Family {
    pn::CodeFamily family;
    std::size_t min_length;
  };
  const Family families[] = {
      {pn::CodeFamily::kTwoNC, 20},
      {pn::CodeFamily::kGold, 31},
      {pn::CodeFamily::kGold, 127},
  };
  const std::size_t spc = 4;
  Rng rng(21);
  for (const auto& fam : families) {
    for (const std::size_t n_codes : {2u, 8u}) {
      const auto codes = pn::make_code_set(fam.family, n_codes, fam.min_length);
      UserDetectConfig naive_cfg;
      naive_cfg.engine = DetectEngine::kNaive;
      UserDetectConfig fft_cfg;
      fft_cfg.engine = DetectEngine::kFft;
      UserDetectConfig auto_cfg;
      auto_cfg.engine = DetectEngine::kAuto;
      const UserDetector naive(naive_cfg, codes, kPreambleBits, spc);
      const UserDetector fft(fft_cfg, codes, kPreambleBits, spc);
      const UserDetector aut(auto_cfg, codes, kPreambleBits, spc);
      UserDetector::Scratch ns, fs, as;

      for (const double cfo_hz : {0.0, 4e3}) {
        for (const double noise_w : {0.0, 1e-3}) {
          // Two users collide with sub-chip offsets and random phases.
          rfsim::ChannelConfig cc;
          cc.samples_per_chip = spc;
          cc.chip_rate_hz = 32e6;
          cc.noise_power_w = noise_w;
          const rfsim::Channel channel(cc);
          const std::vector<std::uint8_t> payload{0x42};
          std::vector<std::vector<std::uint8_t>> chips;
          std::vector<rfsim::TagTransmission> txs;
          const std::size_t active = std::min<std::size_t>(2, codes.size());
          for (std::size_t k = 0; k < active; ++k) {
            phy::TagConfig tc;
            tc.id = static_cast<std::uint32_t>(k);
            tc.code = codes[k];
            tc.preamble_bits = kPreambleBits;
            chips.push_back(phy::Tag(tc).chip_sequence(payload));
          }
          for (std::size_t k = 0; k < active; ++k) {
            rfsim::TagTransmission tx;
            tx.chips = chips[k];
            tx.amplitude = 1.0 - 0.4 * static_cast<double>(k);
            tx.phase = rng.phase();
            tx.delay_chips = 16.0 + 0.6 * static_cast<double>(k);
            tx.freq_offset_hz = cfo_hz;
            txs.push_back(tx);
          }
          const auto iq = channel.receive(txs, rng);
          std::vector<double> re, im;
          pn::split_iq(iq, re, im);
          const DetectionInput input{re, im, 16 * spc};

          const auto naive_hits = naive.detect(input, ns);
          const auto fft_hits = fft.detect(input, fs);
          const auto auto_hits = aut.detect(input, as);
          const std::string context =
              "family=" + std::to_string(static_cast<int>(fam.family)) +
              " L=" + std::to_string(codes.front().length()) + " K=" +
              std::to_string(n_codes) + " cfo=" + std::to_string(cfo_hz) +
              " noise=" + std::to_string(noise_w);
          for (const auto* other : {&fft_hits, &auto_hits}) {
            ASSERT_EQ(naive_hits.size(), other->size()) << context;
            for (std::size_t i = 0; i < naive_hits.size(); ++i) {
              const auto& a = naive_hits[i];
              const auto& b = (*other)[i];
              EXPECT_EQ(a.tag_index, b.tag_index) << context;
              EXPECT_EQ(a.offset_samples, b.offset_samples) << context;
              EXPECT_NEAR(a.correlation, b.correlation, 1e-12) << context;
              EXPECT_NEAR(a.phase, b.phase, 1e-12) << context;
              // correlation − runner_up is the detection margin consumed by
              // link-quality reports; pin it too.
              EXPECT_NEAR(a.runner_up, b.runner_up, 1e-12) << context;
            }
          }
        }
      }
    }
  }
}

TEST(CorrelationEngine, AutoResolvesFftForWideBatchesNaiveForNarrow) {
  Rng rng(31);
  const auto tmpls = random_chip_templates(64, 1024, rng);
  const auto engine = make_correlation_engine(DetectEngine::kAuto, tmpls, 4, 512);
  EXPECT_EQ(engine->kind(), DetectEngine::kAuto);
  // The paper's 64-code anchor search sits far past the crossover.
  EXPECT_EQ(engine->resolve(64, 512), DetectEngine::kFft);
  // A one-code group-window rescan of a few lags is not worth a transform.
  EXPECT_EQ(engine->resolve(1, 4), DetectEngine::kNaive);
}

TEST(CorrelationEngine, AutoChoiceIsTheSameOnBothDispatchPaths) {
  // BM_DetectPeaks grid points 4/32/64 and 4/128/64 (4 codes, 8 × 32 or
  // 8 × 128 chips, spc 4, 64 lags; naive/FFT flop ratios 1.87 and 2.16):
  // the naive scan is the same scalar kernel on both dispatch paths, so
  // auto picks FFT on both (DESIGN.md §9.2).
  Rng rng(33);
  for (const std::size_t chips : {8 * 32, 8 * 128}) {
    const auto tmpls = random_chip_templates(4, chips, rng);
    const auto engine = make_correlation_engine(DetectEngine::kAuto, tmpls, 4, 64);
    pn::simd::on_both_paths([&](bool scalar) {
      const std::string where = std::to_string(chips) + " chips " +
                                (scalar ? "scalar" : "native");
      EXPECT_EQ(engine->resolve(4, 64), DetectEngine::kFft) << where;
      EXPECT_EQ(engine->resolve(4, 512), DetectEngine::kFft) << where;
      EXPECT_EQ(engine->resolve(1, 4), DetectEngine::kNaive) << where;
    });
  }
}

TEST(CorrelationEngine, ConcreteEnginesResolveToThemselves) {
  Rng rng(32);
  const auto tmpls = random_chip_templates(4, 64, rng);
  const auto naive = make_correlation_engine(DetectEngine::kNaive, tmpls, 4, 73);
  const auto fft = make_correlation_engine(DetectEngine::kFft, tmpls, 4, 73);
  EXPECT_EQ(naive->kind(), DetectEngine::kNaive);
  EXPECT_EQ(fft->kind(), DetectEngine::kFft);
  EXPECT_EQ(naive->resolve(64, 4096), DetectEngine::kNaive);
  EXPECT_EQ(fft->resolve(1, 1), DetectEngine::kFft);
  EXPECT_STREQ(naive->name(), "naive");
  EXPECT_STREQ(fft->name(), "fft");
  EXPECT_STREQ(to_string(DetectEngine::kAuto), "auto");
}

TEST(CorrelationEngine, FactoryValidatesTemplates) {
  Rng rng(33);
  const std::vector<std::vector<double>> empty;
  EXPECT_THROW(make_correlation_engine(DetectEngine::kNaive, empty, 4, 73),
               std::invalid_argument);
  auto ragged = random_chip_templates(2, 32, rng);
  ragged[1].resize(16);
  EXPECT_THROW(make_correlation_engine(DetectEngine::kFft, ragged, 4, 73),
               std::invalid_argument);
  EXPECT_THROW(make_correlation_engine(DetectEngine::kFft,
                                       random_chip_templates(2, 32, rng), 0, 73),
               std::invalid_argument);
}

TEST(CorrelationEngine, ScratchReuseIsDeterministic) {
  Rng rng(34);
  const auto tmpls = random_chip_templates(4, 128, rng);
  const std::size_t spc = 4;
  std::vector<double> re(128 * spc + 200), im(re.size());
  fill_normal(rng, re, im);
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, spc, fold_re);
  pn::fold_chip_sums(im, spc, fold_im);
  const CorrelationWindow window{re, im, fold_re, fold_im, spc};
  const auto engine = make_correlation_engine(DetectEngine::kFft, tmpls, spc, 201);
  const auto scratch = engine->make_scratch();
  const std::vector<std::size_t> idx{0, 1, 2, 3};
  std::vector<pn::ComplexCorrelationPeak> first(4), second(4);
  engine->peaks(window, idx, 0, 201, first, *scratch);
  // Different shape in between (subset, narrow range) must not leak state.
  std::vector<pn::ComplexCorrelationPeak> tmp(1);
  const std::vector<std::size_t> one{2};
  engine->peaks(window, one, 50, 60, tmp, *scratch);
  engine->peaks(window, idx, 0, 201, second, *scratch);
  for (std::size_t k = 0; k < 4; ++k) {
    expect_same_peaks(first[k], second[k], "scratch reuse code " +
                                               std::to_string(k));
  }
}

TEST(CorrelationEngine, DetectorExposesConfiguredEngine) {
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 4, 20);
  UserDetectConfig cfg;
  cfg.engine = DetectEngine::kFft;
  const UserDetector det(cfg, codes, kPreambleBits, 4);
  EXPECT_EQ(det.engine().kind(), DetectEngine::kFft);
  EXPECT_STREQ(det.engine().name(), "fft");
}

}  // namespace
}  // namespace cbma::rx
