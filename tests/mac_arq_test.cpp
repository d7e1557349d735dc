#include "mac/arq.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/system.h"
#include "util/units.h"

namespace cbma::mac {
namespace {

rx::AckMessage ack_of(std::initializer_list<std::size_t> slots) {
  rx::AckMessage ack;
  ack.decoded_tags.assign(slots);
  return ack;
}

TEST(ArqTracker, RejectsBadConstruction) {
  EXPECT_THROW(ArqTracker({}, 0), std::invalid_argument);
  ArqConfig cfg;
  cfg.max_attempts = 0;
  EXPECT_THROW(ArqTracker(cfg, 2), std::invalid_argument);
}

TEST(ArqTracker, OfferAndDue) {
  ArqTracker arq({}, 3);
  EXPECT_TRUE(arq.due().empty());
  EXPECT_TRUE(arq.offer(1));
  EXPECT_FALSE(arq.offer(1));  // still pending
  EXPECT_TRUE(arq.offer(2));
  const auto due = arq.due();
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 1u);
  EXPECT_EQ(due[1], 2u);
  EXPECT_THROW(arq.offer(3), std::invalid_argument);
}

TEST(ArqTracker, FirstAttemptDelivery) {
  ArqTracker arq({}, 2);
  arq.offer(0);
  const std::vector<std::size_t> tx{0};
  arq.on_round(ack_of({0}), tx);
  EXPECT_FALSE(arq.pending(0));
  EXPECT_EQ(arq.stats().delivered, 1u);
  EXPECT_EQ(arq.stats().transmissions, 1u);
  EXPECT_EQ(arq.stats().attempts_histogram[0], 1u);
  EXPECT_DOUBLE_EQ(arq.stats().mean_attempts(), 1.0);
}

TEST(ArqTracker, RetransmitsUntilAcked) {
  ArqTracker arq({}, 1);
  arq.offer(0);
  const std::vector<std::size_t> tx{0};
  arq.on_round(ack_of({}), tx);  // miss
  EXPECT_TRUE(arq.pending(0));
  arq.on_round(ack_of({}), tx);  // miss
  arq.on_round(ack_of({0}), tx);  // third attempt lands
  EXPECT_FALSE(arq.pending(0));
  EXPECT_EQ(arq.stats().delivered, 1u);
  EXPECT_EQ(arq.stats().transmissions, 3u);
  EXPECT_EQ(arq.stats().attempts_histogram[2], 1u);
  EXPECT_DOUBLE_EQ(arq.stats().mean_attempts(), 3.0);
}

TEST(ArqTracker, DropsAfterBudget) {
  ArqConfig cfg;
  cfg.max_attempts = 2;
  ArqTracker arq(cfg, 1);
  arq.offer(0);
  const std::vector<std::size_t> tx{0};
  arq.on_round(ack_of({}), tx);
  EXPECT_TRUE(arq.pending(0));
  arq.on_round(ack_of({}), tx);  // budget exhausted
  EXPECT_FALSE(arq.pending(0));
  EXPECT_EQ(arq.stats().dropped, 1u);
  EXPECT_EQ(arq.stats().delivered, 0u);
  EXPECT_DOUBLE_EQ(arq.stats().delivery_ratio(), 0.0);
  // The slot is free for a new message again.
  EXPECT_TRUE(arq.offer(0));
}

TEST(ArqTracker, TransmittingIdleSlotIsAContractViolation) {
  ArqTracker arq({}, 2);
  const std::vector<std::size_t> tx{0};
  EXPECT_THROW(arq.on_round(ack_of({}), tx), std::invalid_argument);
}

TEST(ArqTracker, MixedRound) {
  ArqTracker arq({}, 3);
  arq.offer(0);
  arq.offer(1);
  arq.offer(2);
  const std::vector<std::size_t> tx{0, 1, 2};
  arq.on_round(ack_of({0, 2}), tx);
  EXPECT_FALSE(arq.pending(0));
  EXPECT_TRUE(arq.pending(1));
  EXPECT_FALSE(arq.pending(2));
  EXPECT_EQ(arq.stats().delivered, 2u);
  EXPECT_EQ(arq.stats().transmissions, 3u);
}

TEST(ArqTracker, StatsRatios) {
  ArqStats s;
  EXPECT_DOUBLE_EQ(s.delivery_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_attempts(), 0.0);
}

// End-to-end: ARQ over the real system recovers losses that single-shot
// transmission suffers near the receiver floor.
TEST(ArqEndToEnd, RetransmissionLiftsDelivery) {
  core::SystemConfig cfg;
  cfg.max_tags = 3;
  cfg.payload_bytes = 4;
  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({0.0, 0.5});
  dep.add_tag({0.3, -0.6});
  dep.add_tag({-0.3, 0.7});
  core::CbmaSystem sys(cfg, dep);
  // Intermittent OFDM excitation makes single-shot delivery lossy in a
  // geometry-independent way (frames landing in a gap are lost).
  sys.set_excitation(std::make_unique<rfsim::OfdmExcitation>(400e-6, 250e-6));
  Rng rng(2);

  ArqConfig arq_cfg;
  arq_cfg.max_attempts = 4;
  ArqTracker arq(arq_cfg, 3);

  std::size_t single_shot_ok = 0;
  // Enough messages that the ratios estimate ARQ's expected delivery rather
  // than one short draw.
  const std::size_t messages = 300;
  for (std::size_t m = 0; m < messages; ++m) {
    for (std::size_t s = 0; s < 3; ++s) arq.offer(s);
    // Drive rounds until this batch resolves. Only the batch's first round
    // is the single-shot comparison point: a retry of all three slots after
    // a joint loss also has three slots, but it is not a first attempt.
    for (bool first = true; !arq.due().empty(); first = false) {
      const auto tx = arq.due();
      core::TransmitOptions options;
      options.slots = tx;
      const auto report = sys.transmit(options, rng);
      if (first) {
        for (const auto slot : tx) {
          if (report.ack.contains(slot)) ++single_shot_ok;
        }
      }
      arq.on_round(report.ack, tx);
    }
  }
  const auto& stats = arq.stats();
  EXPECT_EQ(stats.offered, 3 * messages);
  EXPECT_EQ(stats.delivered + stats.dropped, stats.offered);
  // ARQ must beat single-shot delivery under the lossy excitation.
  const double single_ratio =
      static_cast<double>(single_shot_ok) / static_cast<double>(3 * messages);
  EXPECT_LT(single_ratio, 0.95);  // the channel really is lossy
  EXPECT_GT(stats.delivery_ratio(), single_ratio);
  EXPECT_GE(stats.delivery_ratio(), 0.9);
  EXPECT_GT(stats.mean_attempts(), 1.0);
}

}  // namespace
}  // namespace cbma::mac
