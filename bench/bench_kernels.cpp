// Micro-benchmarks (google-benchmark) of the hot kernels: spreading, Gold
// family construction, channel synthesis, AWGN, leakage tones, frame
// decode, the full end-to-end collided round over one TransmitScratch
// reused across packets, the streaming receiver, the detector's folded
// peak search, the whole detector, and one multi-cell network round. Each row times work no
// other row times; together they bound the simulator's packets/second and
// document where the cycles go.
//
// Besides the console table, the run writes BENCH_kernels.json (google
// benchmark's JSON schema) next to the working directory so tooling and CI
// can track the ns/packet counters without scraping stdout. Pass
// --benchmark_out=... to redirect it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/system.h"
#include "net/network.h"
#include "phy/spreader.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "rx/decoder.h"
#include "rx/user_detect.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace {

using namespace cbma;

/// Shared epilogue for the rate-counted benches: items-processed bookkeeping
/// plus an "ns_per_packet" counter, the wall nanoseconds per iteration
/// DESIGN.md §4.7 quotes (one packet for the end-to-end benches, one kernel
/// call for the others).
void finish_rate(benchmark::State& state, std::int64_t items_per_iter) {
  state.SetItemsProcessed(state.iterations() * items_per_iter);
  state.counters["ns_per_packet"] = benchmark::Counter(
      1e-9, benchmark::Counter::kIsIterationInvariantRate |
                benchmark::Counter::kInvert);
}

void BM_Spread(benchmark::State& state) {
  const auto code = pn::make_code_set(pn::CodeFamily::kTwoNC, 10, 20)[0];
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = i & 1;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    phy::spread_into(bits, code, out);
    benchmark::DoNotOptimize(out.data());
  }
  finish_rate(state, state.range(0));
}
BENCHMARK(BM_Spread)->Arg(112)->Arg(1024);

void BM_GoldFamilyConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pn::make_code_set(pn::CodeFamily::kGold, 10, 31));
  }
}
BENCHMARK(BM_GoldFamilyConstruction);

/// Chips of a 112-bit frame at L=32.
constexpr std::size_t kSynthesisChips = 3584;

/// One seeded random chip sequence per tag (storage for the transmissions
/// synthesis_tags builds).
std::vector<std::vector<std::uint8_t>> synthesis_chips(std::size_t tags) {
  Rng rng(12);
  std::vector<std::vector<std::uint8_t>> chips(tags);
  for (auto& c : chips) {
    c.resize(kSynthesisChips);
    for (auto& chip : c) chip = rng.bernoulli(0.5) ? 1 : 0;
  }
  return chips;
}

/// The tags' transmissions, each at its own fractional delay, so every tag
/// path takes the two-tap interpolation a real asynchronous round takes.
std::vector<rfsim::TagTransmission> synthesis_tags(
    const std::vector<std::vector<std::uint8_t>>& chips) {
  std::vector<rfsim::TagTransmission> txs(chips.size());
  for (std::size_t k = 0; k < txs.size(); ++k) {
    txs[k].chips = chips[k];
    txs[k].amplitude = 1e-6;
    txs[k].delay_chips = 8.0 + 0.37 * static_cast<double>(k + 1);
  }
  return txs;
}

/// Channel synthesis of Arg(0) tags into caller-owned buffers — the batched
/// pipeline's zero-allocation path (window, envelope and waveform capacity
/// all reused).
void BM_ChannelSynthesisScratch(benchmark::State& state) {
  Rng rng(2);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  cc.noise_power_w = 1e-9;
  const rfsim::Channel channel(cc);
  const auto chips = synthesis_chips(static_cast<std::size_t>(state.range(0)));
  const auto txs = synthesis_tags(chips);
  const rfsim::ContinuousTone tone;
  rfsim::ChannelScratch scratch;
  std::vector<std::complex<double>> iq;
  for (auto _ : state) {
    channel.receive_into(txs, tone, {}, rng, scratch, iq);
    benchmark::DoNotOptimize(iq.data());
  }
  finish_rate(state,
              static_cast<std::int64_t>(kSynthesisChips) * state.range(0));
}
BENCHMARK(BM_ChannelSynthesisScratch)->Arg(2)->Arg(10);

/// Samples in one multi-cell receive window (a 3×3 floor's cell window).
constexpr std::size_t kWindowSamples = 26500;

/// AWGN fill of one receive window: the per-window normal stream
/// (DESIGN.md §4.1). ns_per_packet is ns per window.
void BM_AwgnFill(benchmark::State& state) {
  Rng rng(6);
  const rfsim::AwgnSource noise(1e-9);
  std::vector<std::complex<double>> iq(kWindowSamples, {0.0, 0.0});
  for (auto _ : state) {
    noise.add_to(iq, rng);
    benchmark::DoNotOptimize(iq.data());
  }
  finish_rate(state, static_cast<std::int64_t>(kWindowSamples));
}
BENCHMARK(BM_AwgnFill);

/// Arg(0) foreign-gateway leakage tones rendered as one run over one receive
/// window, the way Channel::receive_into adds a cell's leakage (DESIGN.md
/// §11). ns_per_packet is ns per window.
void BM_LeakageTones(benchmark::State& state) {
  Rng rng(7);
  std::vector<rfsim::CarrierLeakageInterferer> tones;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    tones.emplace_back(1e-10 / static_cast<double>(k + 1), 40.0 * static_cast<double>(k + 1));
  }
  std::vector<const rfsim::CarrierLeakageInterferer*> run;
  for (const auto& t : tones) run.push_back(&t);
  std::vector<std::complex<double>> iq(kWindowSamples, {0.0, 0.0});
  for (auto _ : state) {
    rfsim::CarrierLeakageInterferer::add_run(run, iq, 124e6, rng);
    benchmark::DoNotOptimize(iq.data());
  }
  finish_rate(state, static_cast<std::int64_t>(kWindowSamples));
}
BENCHMARK(BM_LeakageTones)->Arg(8);

void BM_DecodeFrame(benchmark::State& state) {
  Rng rng(3);
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 10, 20);
  phy::TagConfig tc;
  tc.id = 0;
  tc.code = codes[0];
  const phy::Tag tag(tc);
  const std::vector<std::uint8_t> payload(8, 0x5A);
  const auto chips = tag.chip_sequence(payload);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.delay_chips = 8.0;
  const auto iq = rfsim::Channel(cc).receive(std::span(&tx, 1), rng);
  const rx::Decoder decoder(codes[0], 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(iq, 32, 0.0));
  }
}
BENCHMARK(BM_DecodeFrame);

/// The batched pipeline: transmit(options, rng, scratch) with one scratch
/// reused across packets — what run_packets and the experiment sweeps run.
/// ns_per_packet here is the repo's headline per-packet figure.
void BM_EndToEndBatched(benchmark::State& state) {
  core::SystemConfig cfg;
  cfg.max_tags = static_cast<std::size_t>(state.range(0));
  auto dep = rfsim::Deployment::paper_frame();
  for (int k = 0; k < state.range(0); ++k) {
    dep.add_tag({0.1 * k, 0.6});
  }
  const core::CbmaSystem sys(cfg, dep);
  Rng rng(4);
  const core::TransmitOptions options;
  core::TransmitScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.transmit(options, rng, scratch));
  }
  finish_rate(state, state.range(0));
}
BENCHMARK(BM_EndToEndBatched)->Arg(2)->Arg(5)->Arg(10);

/// The chunked streaming receiver on a continuous stream of Arg(0) decodable
/// rounds (round + noise gap, fed in 4096-sample chunks through one warm
/// session). ns_per_sample is the steady-state ingest cost the kernel gate
/// judges; the flat ring footprint is pinned by the
/// StreamingReceiver.ContinuousStreamDecodesEveryRoundAtFlatMemory test.
void BM_StreamingRx(benchmark::State& state) {
  rx::ReceiverConfig cfg;
  cfg.samples_per_chip = 4;
  cfg.preamble_bits = 8;
  cfg.max_payload_bytes = 4;  // tight lookahead: rounds finalize back to back
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 2, 20);
  const rx::Receiver receiver(cfg, codes);

  Rng rng(5);
  phy::TagConfig tc;
  tc.id = 0;
  tc.code = codes[0];
  tc.preamble_bits = 8;
  const std::vector<std::uint8_t> payload{0x5A, 0xC3, 0x3C};
  const auto chips = phy::Tag(tc).chip_sequence(payload);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  cc.noise_power_w = 1e-4;
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = rng.phase();
  tx.delay_chips = 64.0;
  auto unit = rfsim::Channel(cc).receive(std::span(&tx, 1), rng);
  std::vector<std::complex<double>> gap(3000, {0.0, 0.0});
  rfsim::AwgnSource(1e-4).add_to(gap, rng);
  unit.insert(unit.end(), gap.begin(), gap.end());

  std::vector<std::complex<double>> stream;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    stream.insert(stream.end(), unit.begin(), unit.end());
  }

  std::uint64_t decoded = 0;
  rx::StreamingReceiver session(
      receiver, [&](rx::RxReport r) { decoded += r.decoded_count(); });
  const std::span<const std::complex<double>> samples(stream);
  for (auto _ : state) {
    session.reset();
    for (std::size_t off = 0; off < samples.size(); off += 4096) {
      session.feed(samples.subspan(
          off, std::min<std::size_t>(4096, samples.size() - off)));
    }
    session.flush();
  }
  benchmark::DoNotOptimize(decoded);
  state.counters["ns_per_sample"] = benchmark::Counter(
      static_cast<double>(samples.size()) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_StreamingRx)->Arg(1)->Arg(10);

// --- detection peak search (DESIGN.md §9) -----------------------------------
//
// One detection round's peak search — pn::sliding_complex_peak_folded for
// every code of the family over one anchor window — per iteration, the unit
// UserDetector pays once per round. The (K codes, L chips/bit, W lags) grid
// spans family size, code length and window width. ns_per_packet here is
// ns per round.

constexpr std::size_t kDetectSpc = 4;
constexpr std::size_t kDetectPreambleBits = 8;

void BM_DetectPeaksNaive(benchmark::State& state) {
  const auto n_codes = static_cast<std::size_t>(state.range(0));
  const auto code_len = static_cast<std::size_t>(state.range(1));
  const auto lags = static_cast<std::size_t>(state.range(2));
  Rng rng(5);
  // Synthetic bipolar chip templates of the detector's shape (preamble bits
  // × code length); timing does not depend on the code family.
  std::vector<std::vector<double>> tmpls(n_codes);
  for (auto& t : tmpls) {
    t.resize(kDetectPreambleBits * code_len);
    for (auto& v : t) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
  }
  const std::size_t n = tmpls.front().size() * kDetectSpc;
  std::vector<double> re(n + lags), im(n + lags);
  NormalStream normal = rng.normal_stream();
  for (std::size_t i = 0; i < re.size(); ++i) {
    re[i] = normal();
    im[i] = normal();
  }
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, kDetectSpc, fold_re);
  pn::fold_chip_sums(im, kDetectSpc, fold_im);
  std::vector<pn::ComplexCorrelationPeak> peaks(n_codes);
  for (auto _ : state) {
    for (std::size_t c = 0; c < n_codes; ++c) {
      peaks[c] = pn::sliding_complex_peak_folded(
          re, im, fold_re, fold_im, tmpls[c], kDetectSpc, 0, lags);
    }
    benchmark::DoNotOptimize(peaks.data());
  }
  finish_rate(state, 1);
}

void detect_peaks_grid(benchmark::internal::Benchmark* b) {
  for (const std::int64_t k : {4, 16, 64}) {
    for (const std::int64_t l : {32, 128}) {
      for (const std::int64_t w : {64, 512}) {
        b->Args({k, l, w});
      }
    }
  }
}
BENCHMARK(BM_DetectPeaksNaive)->Apply(detect_peaks_grid);

// The whole detector on a colliding window: UserDetector::detect with
// Arg(0) tags of the default 2NC family starting within one group window,
// plus noise — the anchor search, every SIC round and the cancellations,
// which BM_DetectPeaksNaive (the one-template search alone) does not time.
// ns_per_packet here is ns per detect() call.
void BM_UserDetect(benchmark::State& state) {
  const auto n_tags = static_cast<std::size_t>(state.range(0));
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, n_tags);
  const rx::UserDetector det(rx::UserDetectConfig{}, codes, kDetectPreambleBits,
                             kDetectSpc);
  Rng rng(9);
  const std::size_t base = 40 * kDetectSpc;
  const std::size_t frame = kDetectPreambleBits * codes.front().length() * kDetectSpc;
  std::vector<double> re(base + 2 * frame), im(re.size());
  NormalStream normal = rng.normal_stream();
  for (std::size_t i = 0; i < re.size(); ++i) {
    re[i] = 0.05 * normal();
    im[i] = 0.05 * normal();
  }
  for (std::size_t t = 0; t < n_tags; ++t) {
    const double amp = rng.uniform(0.5, 1.0);
    const double phase = rng.phase();
    const std::size_t start = base + static_cast<std::size_t>(rng.uniform_int(
                                         0, static_cast<int>(2 * kDetectSpc)));
    // Unipolar chips: the tag's code, then a run of random chips.
    for (std::size_t s = start; s < re.size(); ++s) {
      const std::size_t chip = (s - start) / kDetectSpc;
      const bool on = chip < codes[t].length() * kDetectPreambleBits
                          ? codes[t].chip(chip % codes[t].length()) != 0
                          : rng.bernoulli(0.5);
      if (!on) continue;
      re[s] += amp * std::cos(phase);
      im[s] += amp * std::sin(phase);
    }
  }
  rx::UserDetector::Scratch scratch;
  for (auto _ : state) {
    auto users = det.detect(rx::DetectionInput{re, im, base}, scratch);
    benchmark::DoNotOptimize(users.data());
  }
  finish_rate(state, 1);
}
BENCHMARK(BM_UserDetect)->Arg(4)->Arg(10);

/// The multi-cell floor the round row and the overhead gate share: a
/// side x side gateway grid with 4 tags per cell, after one warm-up round
/// that builds every cell.
net::Network multicell_network(std::size_t side) {
  net::NetworkConfig cfg;
  cfg.cell.code_family = pn::CodeFamily::kGold;
  cfg.cell.max_tags = 4;
  cfg.cell.tx_power_dbm = 30.0;
  cfg.reuse.family_size = 64;
  cfg.packets_per_round = 1;
  auto network = net::Network::grid(cfg, 6.0 * static_cast<double>(side),
                                    4.0 * static_cast<double>(side), side, side);
  Rng rng(6);
  network.place_random_tags(side * side * 4, rng);
  network.run_round(7, /*max_workers=*/1);
  return network;
}

/// One multi-cell network round on an Arg(0) x Arg(0) gateway grid:
/// association/roaming, per-cell CBMA MAC (one packet per cell round to
/// isolate the network layer's overhead around the per-packet pipeline),
/// inter-cell leakage summation. Runs the cells on one worker so the figure
/// is a stable single-thread cost; ns_per_round is per *cell* round.
void BM_NetMulticellRound(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  auto network = multicell_network(side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.run_round(7, /*max_workers=*/1));
  }
  const auto cells = static_cast<std::int64_t>(side * side);
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_NetMulticellRound)->Arg(2);

// --- observability overhead gate (DESIGN.md §12, §13) -----------------------
//
// `bench_kernels --twin-overhead`: the armed metrics plane (in memory, no
// Prometheus file, so it measures recording, not filesystem I/O; it arms the
// span recorder and both its views) may cost at most +2 % over a plane-off
// round. Armed and off blocks of rounds on the BM_NetMulticellRound/2 floor
// alternate in one process, the order flipped every pair, so a host that
// drifts between a fast and a slow state slows both halves of a pair alike.

constexpr int kOverheadPairs = 200;
constexpr int kOverheadBlockRounds = 10;
constexpr double kOverheadBudget = 1.02;

/// Prints the median armed/off block ratio with a sign-test 95 % interval
/// (order statistics n/2 ± 1.96·√n/2) and returns 1 when the median is over
/// budget.
int twin_overhead() {
  auto network = multicell_network(2);
  const auto block_ns = [&](bool armed) {
    if (armed) {
      metrics::set_export_path("");
      metrics::set_enabled(true);
      telemetry::reset();
    } else {
      metrics::set_enabled(false);
      telemetry::set_enabled(false);
    }
    // Untimed: after the reset, the armed round rebuilds series and nodes.
    network.run_round(7, /*max_workers=*/1);
    const std::uint64_t begin = util::monotonic_ns();
    for (int r = 0; r < kOverheadBlockRounds; ++r) {
      benchmark::DoNotOptimize(network.run_round(7, /*max_workers=*/1));
    }
    return static_cast<double>(util::monotonic_ns() - begin);
  };
  std::vector<double> ratios;
  for (int p = 0; p < kOverheadPairs; ++p) {
    const bool armed_first = p % 2 == 0;
    const double first = block_ns(armed_first);
    const double second = block_ns(!armed_first);
    ratios.push_back(armed_first ? first / second : second / first);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  const double median = (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0;
  // Sign-test interval: the j-th ratio from either end, j = n/2 − 1.96·√n/2.
  const auto j = static_cast<std::size_t>(
      std::floor(n / 2.0 - 1.96 * std::sqrt(static_cast<double>(n)) / 2.0));
  const bool ok = median <= kOverheadBudget;
  std::printf(
      "twin-overhead: armed/off median %.4f (95%% CI %.4f-%.4f) over %zu "
      "pairs of %d-round blocks: %s (budget %.2f)\n",
      median, ratios[j - 1], ratios[n - j], n, kOverheadBlockRounds,
      ok ? "ok" : "OVER BUDGET", kOverheadBudget);
  return ok ? 0 : 1;
}

}  // namespace

// Custom main: always emit machine-readable results alongside the console
// table by defaulting --benchmark_out to BENCH_kernels.json (an explicit
// --benchmark_out on the command line wins). Every other google-benchmark
// flag passes through untouched. --twin-overhead runs the overhead gate
// instead of the benchmarks.
int main(int argc, char** argv) {
  bool has_out_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--twin-overhead") return twin_overhead();
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out_flag = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out_flag) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
