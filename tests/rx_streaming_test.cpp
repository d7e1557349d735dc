// Batch-vs-streaming equivalence (DESIGN.md §10): the chunked
// StreamingReceiver must produce byte-identical RxReports to the batch
// process_iq wrapper at every chunk size, including when a frame straddles
// a chunk boundary, and must hold O(window) ring memory on streams of
// unbounded length.
#include "rx/streaming_receiver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "phy/tag.h"
#include "rfsim/channel.h"
#include "observability_fixture.h"
#include "rx/frame_sync.h"
#include "util/probe.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;
constexpr double kLeadChips = 64.0;

ReceiverConfig rx_config() {
  ReceiverConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.preamble_bits = kPreambleBits;
  return cfg;
}

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

rfsim::Channel channel(double noise) {
  rfsim::ChannelConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.chip_rate_hz = 32e6;
  cfg.noise_power_w = noise;
  return rfsim::Channel(cfg);
}

struct ActiveTag {
  std::size_t index;
  double amplitude;
  double delay_chips;
  std::vector<std::uint8_t> payload;
};

std::vector<std::complex<double>> make_window(const std::vector<pn::PnCode>& codes,
                                              const std::vector<ActiveTag>& active,
                                              cbma::Rng& rng, double noise) {
  // TagTransmission::chips is a non-owning span — the chip storage must
  // outlive the synthesis call, so it lives in its own vector.
  std::vector<std::vector<std::uint8_t>> chips;
  for (const auto& a : active) {
    phy::TagConfig tc;
    tc.id = static_cast<std::uint32_t>(a.index);
    tc.code = codes[a.index];
    tc.preamble_bits = kPreambleBits;
    chips.push_back(phy::Tag(tc).chip_sequence(a.payload));
  }
  std::vector<rfsim::TagTransmission> txs;
  for (std::size_t k = 0; k < active.size(); ++k) {
    rfsim::TagTransmission tx;
    tx.chips = chips[k];
    tx.amplitude = active[k].amplitude;
    tx.phase = rng.phase();
    tx.delay_chips = kLeadChips + active[k].delay_chips;
    txs.push_back(tx);
  }
  return channel(noise).receive(txs, rng);
}

// Feed `iq` in `chunk`-sized pieces (the last one may be shorter).
void feed_chunked(StreamingReceiver& session, std::span<const std::complex<double>> iq,
                  std::size_t chunk) {
  for (std::size_t off = 0; off < iq.size(); off += chunk) {
    session.feed(iq.subspan(off, std::min(chunk, iq.size() - off)));
  }
}

// StreamingReceiver::process() with the buffer fed in `chunk`-sized pieces:
// reset, feed, flush, and return the first report of a sink-less session.
RxReport process_chunked(StreamingReceiver& session,
                         std::span<const std::complex<double>> iq, std::size_t chunk) {
  session.reset();
  feed_chunked(session, iq, chunk);
  session.flush();
  RxReport out;
  EXPECT_TRUE(session.take_report(out));
  return out;
}

std::map<std::string, std::uint64_t> counter_map() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : telemetry::snapshot().counters) out[c.name] = c.value;
  return out;
}

TEST(StreamingReceiver, ChunkedFeedMatchesBatchByteForByte) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(11);
  const auto iq = make_window(
      codes, {{0, 1.0, 0.2, {0xAA, 0x01}}, {2, 0.9, 0.6, {0xBB, 0x02, 0x03}}},
      rng, 1e-4);

  const RxReport batch = rx.process_iq(iq);
  ASSERT_TRUE(batch.frame_start.has_value());
  ASSERT_EQ(batch.decoded_count(), 2u);

  StreamingReceiver session(rx);
  const std::size_t chunk_sizes[] = {1, 7, kSpc, 4096, iq.size()};
  for (const std::size_t chunk : chunk_sizes) {
    const RxReport streamed = process_chunked(session, iq, chunk);
    EXPECT_EQ(streamed, batch) << "chunk_samples=" << chunk;
  }
}

TEST(StreamingReceiver, FrameStraddlingAChunkBoundaryIsUnchanged) {
  const auto codes = group_codes(3);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(12);
  const std::vector<std::uint8_t> payload{0xDE, 0xAD};
  const auto iq = make_window(codes, {{1, 1.0, 0.3, payload}}, rng, 1e-4);

  const RxReport batch = rx.process_iq(iq);
  ASSERT_TRUE(batch.frame_start.has_value());
  ASSERT_TRUE(batch.ack.contains(1));

  // Cut the stream mid-frame (just past the sync trigger, inside the
  // preamble) so the comparator state and the detection window both have to
  // survive a chunk boundary.
  const std::span<const std::complex<double>> span(iq);
  for (const std::size_t cut :
       {*batch.frame_start + 1, *batch.frame_start + 257, iq.size() / 2}) {
    ASSERT_LT(cut, iq.size());
    StreamingReceiver session(rx);
    session.feed(span.first(cut));
    session.feed(span.subspan(cut));
    session.flush();
    RxReport streamed;
    ASSERT_TRUE(session.take_report(streamed)) << "cut=" << cut;
    EXPECT_EQ(streamed, batch) << "cut=" << cut;
    EXPECT_FALSE(session.take_report(streamed));
  }
}

TEST(StreamingReceiver, TelemetryCountersMatchBatch) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(13);
  const auto iq =
      make_window(codes, {{0, 1.0, 0.1, {7, 7}}, {3, 1.0, 0.5, {8, 8}}}, rng, 1e-4);

  telemetry::set_enabled(true);
  telemetry::reset();
  const RxReport batch = rx.process_iq(iq);
  const auto batch_counters = counter_map();

  StreamingReceiver session(rx);
  for (const std::size_t chunk : {std::size_t{7}, std::size_t{4096}}) {
    telemetry::reset();
    const RxReport streamed = process_chunked(session, iq, chunk);
    const auto streamed_counters = counter_map();
    EXPECT_EQ(streamed, batch);
    EXPECT_EQ(streamed_counters, batch_counters) << "chunk_samples=" << chunk;
  }
  telemetry::set_enabled(false);

  ASSERT_TRUE(batch_counters.contains("rx.outcome.ok"));
  EXPECT_EQ(batch_counters.at("rx.outcome.ok"), 2u);
}

TEST(StreamingReceiver, SilentStreamFlushEmitsTheBatchEmptyReport) {
  const Receiver rx(rx_config(), group_codes(3));
  cbma::Rng rng(14);
  std::vector<std::complex<double>> iq(4000, {0.0, 0.0});
  rfsim::AwgnSource(1e-6).add_to(iq, rng);

  const RxReport batch = rx.process_iq(iq);
  EXPECT_EQ(batch.decoded_count(), 0u);

  std::vector<RxReport> seen;
  StreamingReceiver session(rx, [&](RxReport r) { seen.push_back(std::move(r)); });
  session.feed(iq);
  EXPECT_TRUE(seen.empty());  // nothing fires mid-stream on noise
  session.flush();
  ASSERT_EQ(seen.size(), 1u);  // the silent-window contract
  EXPECT_EQ(seen.front(), batch);
  EXPECT_FALSE(batch.frame_start.has_value());
}

TEST(StreamingReceiver, SessionReuseIsDeterministic) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(15);
  const auto iq = make_window(codes, {{2, 1.0, 0.4, {1, 2, 3, 4}}}, rng, 1e-4);

  StreamingReceiver session(rx);
  const RxReport first = process_chunked(session, iq, 997);
  const RxReport second = process_chunked(session, iq, 997);  // same warm session
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, rx.process_iq(iq));
}

// The O(window) guarantee: a session fed an unbounded concatenation of
// rounds emits one decoded report per round while its ring footprint stays
// exactly flat — memory is a function of the configured lookahead, not of
// how many samples the stream has carried.
TEST(StreamingReceiver, ContinuousStreamDecodesEveryRoundAtFlatMemory) {
  ReceiverConfig cfg = rx_config();
  cfg.max_payload_bytes = 4;  // tight lookahead: rounds finalize back to back
  const auto codes = group_codes(2);
  const Receiver rx(cfg, codes);
  cbma::Rng rng(16);
  const std::vector<std::uint8_t> payload{0x5A, 0xC3, 0x3C};

  // One unit = a decodable round followed by a noise-only gap at the same
  // noise floor (so the only power step the comparator sees is the frame).
  const auto round = make_window(codes, {{0, 1.0, 0.3, payload}}, rng, 1e-4);
  std::vector<std::complex<double>> gap(3000, {0.0, 0.0});
  rfsim::AwgnSource(1e-4).add_to(gap, rng);

  constexpr std::size_t kRounds = 20;
  std::vector<RxReport> seen;
  StreamingReceiver session(rx, [&](RxReport r) { seen.push_back(std::move(r)); });

  std::vector<std::complex<double>> unit = round;
  unit.insert(unit.end(), gap.begin(), gap.end());

  std::size_t ring_high_water = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    feed_chunked(session, unit, 4096);
    if (k == 2) ring_high_water = session.ring_bytes();  // warmed up
  }

  // Every round emitted and decoded during the feed — no flush needed.
  ASSERT_EQ(seen.size(), kRounds);
  std::size_t last_start = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    ASSERT_TRUE(seen[k].frame_start.has_value()) << "round " << k;
    ASSERT_TRUE(seen[k].ack.contains(0)) << "round " << k;
    EXPECT_EQ(seen[k].for_tag(0).payload, payload);
    if (k > 0) {
      EXPECT_GT(*seen[k].frame_start, last_start);  // absolute positions
    }
    last_start = *seen[k].frame_start;
  }

  // Flat footprint: 17 further rounds grew the rings by nothing, and the
  // resident state is a small fraction of the samples consumed.
  EXPECT_EQ(session.ring_bytes(), ring_high_water);
  EXPECT_EQ(session.samples_consumed(), kRounds * unit.size());
  EXPECT_LT(session.resident_bytes(),
            kRounds * unit.size() * sizeof(std::complex<double>) / 4);
}

// Every report a sink-less session emits for `iq` fed in 4096-sample
// chunks and flushed.
std::vector<RxReport> stream_reports(StreamingReceiver& session,
                                     std::span<const std::complex<double>> iq) {
  feed_chunked(session, iq, 4096);
  session.flush();
  std::vector<RxReport> out;
  for (RxReport r; session.take_report(r);) out.push_back(std::move(r));
  return out;
}

// One session rebound between two receivers whose geometry differs (group
// size, detection reach, payload lookahead, sync window and head)
// reports exactly what a fresh session on each receiver reports, and keeps
// its ring capacity across every bind.
TEST(StreamingReceiver, BindTakesTheNewGeometryAndKeepsCapacity) {
  const auto wide_codes = group_codes(4);
  const Receiver wide(rx_config(), wide_codes);
  ReceiverConfig tight_cfg = rx_config();
  tight_cfg.max_payload_bytes = 4;
  tight_cfg.detect.search_back_chips = 4.0;
  tight_cfg.sync.window = 64;
  tight_cfg.sync.head_average = 8;  // fires 8 samples later on a frame edge
  const auto tight_codes = group_codes(2);
  const Receiver tight(tight_cfg, tight_codes);

  // Two rounds a short gap apart: the tight lookahead finalizes each round
  // on its own, the wide one reaches from the first round into the second.
  cbma::Rng rng(18);
  std::vector<std::complex<double>> iq;
  for (const std::size_t tag : {0, 1}) {
    const auto round =
        make_window(wide_codes, {{tag, 1.0, 0.3, {0x3C, 0x5A, static_cast<std::uint8_t>(tag)}},
                                 {tag + 2, 0.7, 0.9, {0x77}}},
                    rng, 1e-4);
    std::vector<std::complex<double>> gap(1500, {0.0, 0.0});
    rfsim::AwgnSource(1e-4).add_to(gap, rng);
    iq.insert(iq.end(), round.begin(), round.end());
    iq.insert(iq.end(), gap.begin(), gap.end());
  }

  StreamingReceiver fresh_wide(wide);
  StreamingReceiver fresh_tight(tight);
  const auto want_wide = stream_reports(fresh_wide, iq);
  const auto want_tight = stream_reports(fresh_tight, iq);
  ASSERT_FALSE(want_wide.empty());
  ASSERT_FALSE(want_tight.empty());
  ASSERT_NE(want_wide, want_tight);

  StreamingReceiver session(tight);
  std::size_t ring = session.ring_bytes();
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const Receiver* rx : {&wide, &tight}) {
      session.bind(*rx);
      EXPECT_EQ(session.samples_consumed(), 0u);
      EXPECT_EQ(session.ring_bytes(), ring) << "bind released ring capacity";
      EXPECT_EQ(stream_reports(session, iq), rx == &wide ? want_wide : want_tight)
          << "cycle " << cycle << (rx == &wide ? " wide" : " tight");
      EXPECT_GE(session.ring_bytes(), ring);
      ring = session.ring_bytes();
    }
  }
}

// Chunk invariance across frame-sync rebases: a continuous stream crossing
// three FrameSynchronizer::Stream rebase boundaries yields the same report
// sequence at every chunk size, because the rebase is keyed to absolute
// positions, never to where a chunk ended.
TEST(StreamingReceiver, ReportsAreChunkInvariantAcrossRebases) {
  ReceiverConfig cfg = rx_config();
  cfg.max_payload_bytes = 4;  // tight lookahead: rounds finalize back to back
  const auto codes = group_codes(2);
  const Receiver rx(cfg, codes);
  cbma::Rng rng(17);
  const std::vector<std::uint8_t> payload{0x3C, 0x5A};

  std::vector<std::complex<double>> iq;
  std::size_t rounds = 0;
  while (iq.size() < 3 * FrameSynchronizer::Stream::kRebaseInterval) {
    const auto round = make_window(codes, {{rounds % 2, 1.0, 0.3, payload}}, rng, 1e-4);
    std::vector<std::complex<double>> gap(3000 + 397 * (rounds % 5), {0.0, 0.0});
    rfsim::AwgnSource(1e-4).add_to(gap, rng);
    iq.insert(iq.end(), round.begin(), round.end());
    iq.insert(iq.end(), gap.begin(), gap.end());
    ++rounds;
  }

  std::vector<RxReport> whole;
  for (const std::size_t chunk : {iq.size(), std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    std::vector<RxReport> seen;
    StreamingReceiver session(rx, [&](RxReport r) { seen.push_back(std::move(r)); });
    feed_chunked(session, iq, chunk);
    session.flush();
    if (whole.empty()) {
      whole = seen;
      ASSERT_EQ(whole.size(), rounds);
      for (std::size_t k = 0; k < rounds; ++k) {
        EXPECT_EQ(whole[k].for_tag(k % 2).payload, payload) << "round " << k;
      }
    }
    EXPECT_EQ(seen, whole) << "chunk_samples=" << chunk;
  }
}

// power_norm is the detector's mean |soft| over the window RMS, and the
// receiver reads that RMS from the frame synchronizer's prefix of m². It
// must equal a direct √(Σ(re²+im²)/n) over the same window within 1e-12 for
// the default geometry, for a back margin wider than the sync window
// (group_window_chips 48) and for a window that crosses two rebase
// boundaries, and chunking must change no report. The window starts
// back_margin before the trigger and, with the default lookahead, ends at
// the buffer's end;
// its probed envelope pins the start. A prefix slot released too early and
// overwritten shows as a wrong power_norm.
TEST(StreamingReceiver, PowerNormReadsTheSynchronizerPower) {
  constexpr std::uint64_t kInterval = FrameSynchronizer::Stream::kRebaseInterval;
  struct Case {
    double group_window_chips;
    std::size_t payload_bytes;
    std::size_t lead;  ///< noise samples ahead of the frame
  };
  for (const auto& [group_chips, payload_bytes, lead] :
       {Case{2.0, 3, 0}, Case{48.0, 3, 0}, Case{2.0, 100, kInterval - 2000}}) {
    ReceiverConfig cfg = rx_config();
    cfg.detect.group_window_chips = group_chips;
    const auto codes = group_codes(2);
    const Receiver rx(cfg, codes);
    cbma::Rng rng(31);
    const std::vector<std::uint8_t> payload(payload_bytes, 0xA5);
    std::vector<std::complex<double>> iq(lead, {0.0, 0.0});
    rfsim::AwgnSource(1e-4).add_to(iq, rng);
    const auto frame = make_window(codes, {{0, 1.0, 0.3, payload}}, rng, 1e-4);
    iq.insert(iq.end(), frame.begin(), frame.end());
    const std::string label = "group " + std::to_string(group_chips) +
                              ", payload " + std::to_string(payload_bytes);

    quiesce_observability();
    probe::set_enabled(true);
    RxReport whole;
    for (const std::size_t chunk : {iq.size(), std::size_t{97}, std::size_t{1}}) {
      telemetry::reset();
      StreamingReceiver session(rx);
      const RxReport report = process_chunked(session, iq, chunk);
      if (chunk != iq.size()) {
        EXPECT_EQ(report, whole) << label << ", chunk " << chunk;
        continue;
      }
      whole = report;
      ASSERT_EQ(report.decoded_count(), 1u) << label;
      ASSERT_TRUE(report.link_quality.at(0).valid) << label;

      // The last attempt decoded the frame (noise may fire earlier ones):
      // its envelope tap, then tag 0's soft values.
      std::map<probe::Tap, std::vector<std::vector<double>>> taps;
      for (auto& r : telemetry::snapshot().probe.taps) {
        taps[r.tap].push_back(std::move(r.data));
      }
      ASSERT_FALSE(taps[probe::Tap::kSyncEnergy].empty()) << label;
      ASSERT_FALSE(taps[probe::Tap::kSoftBits].empty()) << label;
      const auto& envelope = taps[probe::Tap::kSyncEnergy].back();
      const auto& soft = taps[probe::Tap::kSoftBits].back();
      const auto back = static_cast<std::size_t>(
          (cfg.detect.search_back_chips + group_chips + 1.0) * kSpc);
      const std::size_t begin = *report.frame_start - back;
      const std::size_t n = iq.size() - begin;
      ASSERT_EQ(envelope.size(), std::min(n, probe::kMaxSamplesPerRecord)) << label;
      const auto& first = iq[begin];
      ASSERT_EQ(envelope[0], std::sqrt(first.real() * first.real() +
                                       first.imag() * first.imag()))
          << label;
      if (lead > 0) {
        EXPECT_LT(begin, kInterval) << label;
        EXPECT_GT(iq.size(), 2 * kInterval) << label;
      }

      double power = 0.0;
      for (std::size_t i = begin; i < iq.size(); ++i) {
        power += iq[i].real() * iq[i].real() + iq[i].imag() * iq[i].imag();
      }
      double mean_soft = 0.0;
      for (const double v : soft) mean_soft += std::abs(v);
      mean_soft /= static_cast<double>(soft.size());
      const double want = mean_soft / std::sqrt(power / static_cast<double>(n));
      EXPECT_NEAR(report.link_quality[0].power_norm, want, 1e-12 * want) << label;
    }
  }
  quiesce_observability();
}

// FrameSynchronizer::Stream fires at exactly the positions the batch
// detect() walk returns, however the envelope pushes are chunked, and
// detect_all() is that same walk in one pass.
TEST(FrameSyncStream, FiresWhereBatchDetectFires) {
  FrameSyncConfig cfg;
  const FrameSynchronizer sync(cfg);

  std::vector<double> mag(5000, 0.01);
  for (std::size_t i = 1500; i < 1620; ++i) mag[i] = 1.0;
  for (std::size_t i = 2600; i < 2720; ++i) mag[i] = 0.8;
  // A staircase: every 140-sample step is 9.5 dB up, so a refractory of one
  // window skips every other step and a refractory of 0 catches them all.
  for (std::size_t i = 3900; i < 4460; ++i) {
    mag[i] = 0.05 * std::pow(3.0, static_cast<double>((i - 3900) / 140));
  }

  std::vector<std::size_t> batch_triggers;
  std::size_t begin = 0;
  while (auto t = sync.detect(mag, begin)) {
    batch_triggers.push_back(*t);
    begin = *t + cfg.window;
    if (batch_triggers.size() >= 8) break;
  }
  ASSERT_GE(batch_triggers.size(), 3u);
  ASSERT_LT(batch_triggers.size(), 8u);
  EXPECT_EQ(sync.detect_all(mag, cfg.window), batch_triggers);

  // Refractory 0 re-arms one past each hit.
  std::vector<std::size_t> every_position;
  for (std::size_t from = 0; const auto t = sync.detect(mag, from);) {
    every_position.push_back(*t);
    from = *t + 1;
  }
  EXPECT_GT(every_position.size(), batch_triggers.size());
  EXPECT_EQ(sync.detect_all(mag, 0), every_position);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}, mag.size()}) {
    FrameSynchronizer::Stream stream(sync);
    std::vector<std::uint64_t> stream_triggers;
    for (std::size_t off = 0; off < mag.size(); off += chunk) {
      const std::size_t n = std::min(chunk, mag.size() - off);
      for (std::size_t i = 0; i < n; ++i) stream.push(mag[off + i]);
      while (auto t = stream.scan()) {
        stream_triggers.push_back(*t);
        stream.rearm(*t + cfg.window);
        if (stream_triggers.size() >= 8) break;
      }
      if (stream_triggers.size() >= 8) break;
    }
    ASSERT_EQ(stream_triggers.size(), batch_triggers.size()) << "chunk=" << chunk;
    for (std::size_t k = 0; k < batch_triggers.size(); ++k) {
      EXPECT_EQ(stream_triggers[k], batch_triggers[k]) << "chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace cbma::rx
