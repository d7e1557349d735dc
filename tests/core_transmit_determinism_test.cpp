// transmit(TransmitOptions)'s RNG draw order is contractual: whole-group
// rounds draw payloads as a block, then delays as a block, then per-slot
// phase/CFO; subset rounds draw payloads as a block, then per-slot
// phase/delay/CFO; channel noise follows on the same stream. These tests
// pin the contract without any legacy shim: they replicate the leading
// draw blocks by hand, feed the values back as explicit options on the
// *continuing* RNG, and require a bit-identical report to a fully random
// round from a fresh same-seed RNG. That equality holds only if the blocks
// sit exactly where the contract says — a refactor that silently reorders
// draws (changing every seeded experiment in the repo) fails loudly.
#include "core/system.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace cbma::core {
namespace {

SystemConfig fast_config(std::size_t max_tags) {
  SystemConfig cfg;
  cfg.max_tags = max_tags;
  cfg.payload_bytes = 4;  // keep frames short for test speed
  return cfg;
}

rfsim::Deployment deployment(std::size_t n_tags) {
  auto dep = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < n_tags; ++k) {
    dep.add_tag({0.15 * static_cast<double>(k) - 0.3, 0.5});
  }
  return dep;
}

std::vector<std::vector<std::uint8_t>> fixed_payloads(std::size_t n,
                                                      std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].resize(bytes);
    for (std::size_t b = 0; b < bytes; ++b) {
      out[i][b] = static_cast<std::uint8_t>(0x11 * (i + 1) + b);
    }
  }
  return out;
}

/// The payload block exactly as transmit() draws it for `n` random-payload
/// slots: one uniform_int(0, 255) per byte, slots in ascending order.
std::vector<std::vector<std::uint8_t>> draw_payload_block(std::size_t n,
                                                          std::size_t bytes,
                                                          Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out(n);
  for (auto& payload : out) {
    payload.resize(bytes);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  return out;
}

/// The whole-group delay block exactly as transmit() draws it.
std::vector<double> draw_delay_block(std::size_t n, double max_jitter_chips,
                                     Rng& rng) {
  std::vector<double> out(n);
  for (auto& d : out) d = rng.uniform(0.0, max_jitter_chips);
  return out;
}

/// Full structural equality of two receiver reports, including the soft
/// quantities — "same decoder output" means every field, not just the ACK.
void expect_identical(const rx::RxReport& a, const rx::RxReport& b) {
  ASSERT_EQ(a.frame_start.has_value(), b.frame_start.has_value());
  if (a.frame_start) {
    EXPECT_EQ(*a.frame_start, *b.frame_start);
  }
  EXPECT_EQ(a.ack.decoded_tags, b.ack.decoded_tags);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& ra = a.results[i];
    const auto& rb = b.results[i];
    EXPECT_EQ(ra.tag_index, rb.tag_index);
    EXPECT_EQ(ra.detected, rb.detected);
    EXPECT_EQ(ra.crc_ok, rb.crc_ok);
    EXPECT_DOUBLE_EQ(ra.correlation, rb.correlation);
    EXPECT_EQ(ra.offset_samples, rb.offset_samples);
    EXPECT_EQ(ra.payload, rb.payload);
  }
}

TEST(TransmitDeterminism, WholeGroupDrawOrderPinned) {
  const CbmaSystem sys(fast_config(4), deployment(4));
  const auto& cfg = sys.config();
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng_random(seed);
    const auto random_round = sys.transmit(TransmitOptions{}, rng_random);

    // Replicate the leading blocks by hand on a same-seed RNG, then hand
    // the values back as explicit options on the *same* stream. Equality
    // requires payloads drawn first (byte by byte, slots ascending), then
    // the delay block, with per-slot phase/CFO and noise following.
    Rng rng_manual(seed);
    const auto payloads =
        draw_payload_block(sys.group_size(), cfg.payload_bytes, rng_manual);
    const auto delays = draw_delay_block(sys.group_size(),
                                         cfg.max_async_jitter_chips, rng_manual);
    TransmitOptions options;
    options.payloads = payloads;
    options.delay_chips = delays;
    const auto manual_round = sys.transmit(options, rng_manual);
    expect_identical(random_round, manual_round);

    // Both RNGs must also land in the same state: a second round stays
    // identical only if the first consumed identical draw sequences.
    expect_identical(sys.transmit(TransmitOptions{}, rng_random),
                     sys.transmit(TransmitOptions{}, rng_manual));
  }
}

TEST(TransmitDeterminism, ExplicitDelaysReplaceTheJitterBlock) {
  // Explicit whole-group delays must skip the jitter draws entirely (the
  // Fig. 11 study depends on it): two explicit-delay rounds from one seed
  // with different delay values must consume identical RNG streams.
  const CbmaSystem sys(fast_config(3), deployment(3));
  const auto payloads = fixed_payloads(3, 4);
  // Equal maxima: the channel sizes its window (and thus the noise draw
  // count) by the latest tail, so only the jitter draws may differ here.
  const std::vector<double> delays_a{0.0, 0.6, 1.9};
  const std::vector<double> delays_b{1.9, 0.1, 0.8};
  Rng rng_a(23);
  Rng rng_b(23);
  TransmitOptions options_a;
  options_a.payloads = payloads;
  options_a.delay_chips = delays_a;
  TransmitOptions options_b = options_a;
  options_b.delay_chips = delays_b;
  (void)sys.transmit(options_a, rng_a);
  (void)sys.transmit(options_b, rng_b);
  // Next rounds see identical streams only if neither first round drew
  // delay jitter.
  expect_identical(sys.transmit(options_a, rng_a),
                   sys.transmit(options_a, rng_b));
}

TEST(TransmitDeterminism, SubsetPayloadBlockDrawnFirst) {
  const CbmaSystem sys(fast_config(5), deployment(5));
  const auto& cfg = sys.config();
  const std::vector<std::size_t> slots{0, 2, 4};
  TransmitOptions random_subset;
  random_subset.slots = slots;
  Rng rng_random(31);
  const auto random_round = sys.transmit(random_subset, rng_random);

  // Subset rounds draw the payload block first, then per-slot
  // phase/delay/CFO: pre-drawing the payloads and injecting them on the
  // continuing stream must reproduce the random round bit-for-bit.
  Rng rng_manual(31);
  const auto payloads =
      draw_payload_block(slots.size(), cfg.payload_bytes, rng_manual);
  TransmitOptions manual_subset;
  manual_subset.slots = slots;
  manual_subset.payloads = payloads;
  expect_identical(random_round, sys.transmit(manual_subset, rng_manual));
  expect_identical(sys.transmit(random_subset, rng_random),
                   sys.transmit(random_subset, rng_manual));
}

TEST(TransmitDeterminism, EmptySlotListMeansWholeGroup) {
  const CbmaSystem sys(fast_config(3), deployment(3));
  Rng rng_empty(5);
  Rng rng_whole(5);
  TransmitOptions empty_slots;  // slots left empty
  const auto via_empty = sys.transmit(empty_slots, rng_empty);
  const auto via_default = sys.transmit(TransmitOptions{}, rng_whole);
  EXPECT_EQ(via_empty.results.size(), sys.group_size());
  expect_identical(via_empty, via_default);
}

TEST(TransmitDeterminism, ScratchReuseDoesNotPerturbResults) {
  const CbmaSystem sys(fast_config(4), deployment(4));
  // One scratch reused across differently-shaped rounds (whole group,
  // subset, explicit payloads) must leave no state that changes results.
  Rng rng_scratch(99);
  Rng rng_fresh(99);
  TransmitScratch scratch;
  const auto payloads = fixed_payloads(4, 4);
  const std::vector<std::size_t> slots{1, 3};

  TransmitOptions random_round;
  TransmitOptions with_payloads;
  with_payloads.payloads = payloads;
  TransmitOptions subset;
  subset.slots = slots;

  for (int repeat = 0; repeat < 2; ++repeat) {
    expect_identical(sys.transmit(random_round, rng_scratch, scratch),
                     sys.transmit(random_round, rng_fresh));
    expect_identical(sys.transmit(subset, rng_scratch, scratch),
                     sys.transmit(subset, rng_fresh));
    expect_identical(sys.transmit(with_payloads, rng_scratch, scratch),
                     sys.transmit(with_payloads, rng_fresh));
  }
}

TEST(TransmitDeterminism, BatchedRunPacketsMatchesPerRoundLoop) {
  const CbmaSystem sys(fast_config(3), deployment(3));
  Rng rng_batched(7);
  Rng rng_loop(7);
  const auto stats = sys.run_packets(5, rng_batched);
  RoundStats expected(sys.group_size());
  for (int p = 0; p < 5; ++p) {
    const auto report = sys.transmit(TransmitOptions{}, rng_loop);
    for (std::size_t slot = 0; slot < sys.group_size(); ++slot) {
      expected.record(slot, report.results[slot].crc_ok);
    }
  }
  EXPECT_EQ(stats.sent, expected.sent);
  EXPECT_EQ(stats.acked, expected.acked);
}

TEST(TransmitDeterminism, OptionValidation) {
  const CbmaSystem sys(fast_config(3), deployment(3));
  Rng rng(1);
  TransmitOptions bad_payload_count;
  const auto payloads = fixed_payloads(2, 4);
  bad_payload_count.payloads = payloads;
  EXPECT_THROW(sys.transmit(bad_payload_count, rng), std::invalid_argument);

  TransmitOptions bad_slot;
  const std::vector<std::size_t> slots{9};
  bad_slot.slots = slots;
  EXPECT_THROW(sys.transmit(bad_slot, rng), std::invalid_argument);

  TransmitOptions negative_delay;
  const std::vector<double> delays{-1.0, 0.0, 0.0};
  negative_delay.delay_chips = delays;
  EXPECT_THROW(sys.transmit(negative_delay, rng), std::invalid_argument);
}

/// What one thread's calls produced, in call order.
struct CallRecord {
  std::vector<RoundStats> stats;
  std::vector<rx::RxReport> reports;
};

/// A Gold-64 cell and a 2-tag 2NC system share the thread's scratch in
/// turn: run_packets on each, a transmit that throws after its chips were
/// spread, then valid scratch-less transmits on both.
CallRecord run_mixed_calls() {
  SystemConfig gold_cfg = fast_config(8);
  gold_cfg.code_family = pn::CodeFamily::kGold;
  gold_cfg.code_family_size = 64;
  gold_cfg.code_offset = 8;
  const CbmaSystem gold(gold_cfg, deployment(8));
  const CbmaSystem twonc(fast_config(2), deployment(2));

  CallRecord out;
  Rng rng_gold(21);
  Rng rng_twonc(22);
  out.stats.push_back(gold.run_packets(2, rng_gold));
  out.stats.push_back(twonc.run_packets(3, rng_twonc));
  TransmitOptions negative_delay;
  const std::vector<double> delays{0.5, -1.0};
  negative_delay.delay_chips = delays;
  Rng rng_bad(23);
  EXPECT_THROW(twonc.transmit(negative_delay, rng_bad), std::invalid_argument);
  out.reports.push_back(twonc.transmit({}, rng_twonc));
  out.reports.push_back(gold.transmit({}, rng_gold));
  out.stats.push_back(gold.run_packets(2, rng_gold));
  return out;
}

// run_packets and the scratch-less transmit draw their buffers from the
// calling thread's scratch, which every system on that thread shares.
// Nothing that ran on the thread before (another system's geometry, a
// transmit that threw) may reach the results: the same calls made on a
// fresh thread, whose scratch is cold, give the same stats and reports.
TEST(TransmitDeterminism, ThreadScratchCarriesNoHistory) {
  const CallRecord warm = run_mixed_calls();
  CallRecord again = run_mixed_calls();  // now on a warm scratch
  CallRecord cold;
  std::thread([&cold] { cold = run_mixed_calls(); }).join();

  for (const CallRecord* other : {&again, &cold}) {
    ASSERT_EQ(other->stats.size(), warm.stats.size());
    for (std::size_t i = 0; i < warm.stats.size(); ++i) {
      const auto& a = warm.stats[i];
      const auto& b = other->stats[i];
      EXPECT_EQ(a.sent, b.sent) << "call " << i;
      EXPECT_EQ(a.acked, b.acked) << "call " << i;
      EXPECT_EQ(a.outcomes, b.outcomes) << "call " << i;
      EXPECT_EQ(a.correlation_margin.count(), b.correlation_margin.count());
      EXPECT_EQ(a.correlation_margin.mean(), b.correlation_margin.mean());
      EXPECT_EQ(a.correlation_margin.variance(), b.correlation_margin.variance());
    }
    ASSERT_EQ(other->reports.size(), warm.reports.size());
    for (std::size_t i = 0; i < warm.reports.size(); ++i) {
      EXPECT_EQ(warm.reports[i], other->reports[i]) << "report " << i;
    }
  }
  // Every call decoded something, so the comparison has teeth.
  for (const auto& stats : warm.stats) EXPECT_GT(stats.total_acked(), 0u);
  for (const auto& report : warm.reports) EXPECT_GT(report.decoded_count(), 0u);
}

}  // namespace
}  // namespace cbma::core
