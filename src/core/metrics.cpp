#include "core/metrics.h"

#include "util/expect.h"
#include "util/metrics.h"
#include "util/telemetry.h"

namespace cbma::core {

RoundStats::RoundStats(std::size_t group_size)
    : sent(group_size, 0), acked(group_size, 0) {}

void RoundStats::record(std::size_t slot, bool acked_ok) {
  CBMA_REQUIRE(slot < sent.size(), "slot out of range");
  ++sent[slot];
  if (acked_ok) ++acked[slot];
}

void RoundStats::record_outcome(std::size_t outcome_index) {
  if (outcome_index < outcomes.size()) ++outcomes[outcome_index];
}

void RoundStats::merge(const RoundStats& other) {
  CBMA_REQUIRE(other.sent.size() == sent.size(), "merging mismatched stats");
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] += other.sent[i];
    acked[i] += other.acked[i];
  }
  correlation_margin.merge(other.correlation_margin);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i] += other.outcomes[i];
  }
  quality.merge(other.quality);
}

std::size_t RoundStats::total_sent() const {
  std::size_t n = 0;
  for (const auto s : sent) n += s;
  return n;
}

std::size_t RoundStats::total_acked() const {
  std::size_t n = 0;
  for (const auto a : acked) n += a;
  return n;
}

std::vector<double> RoundStats::ack_ratios() const {
  std::vector<double> out(sent.size(), 0.0);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i] > 0) {
      out[i] = static_cast<double>(acked[i]) / static_cast<double>(sent[i]);
    }
  }
  return out;
}

double RoundStats::frame_error_rate() const {
  const std::size_t n = total_sent();
  if (n == 0) return 0.0;
  return 1.0 - static_cast<double>(total_acked()) / static_cast<double>(n);
}

void publish_outcomes(const RoundStats& stats, std::string_view scope) {
  for (std::size_t o = 0; o < stats.outcomes.size(); ++o) {
    if (stats.outcomes[o] == 0) continue;
    metrics::push(telemetry::counter_name(
                      rx::outcome_counter(static_cast<rx::DecodeOutcome>(o))),
                  scope, static_cast<double>(stats.outcomes[o]));
  }
}

}  // namespace cbma::core
