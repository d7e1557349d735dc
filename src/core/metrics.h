// Per-round and per-experiment counters shared by the system driver,
// the MAC schemes and the benches.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#include "rx/receiver.h"
#include "util/link_quality.h"
#include "util/stats.h"

namespace cbma::core {

/// Outcome of a batch of collided packets for one tag group.
struct RoundStats {
  std::vector<std::size_t> sent;   ///< per group slot
  std::vector<std::size_t> acked;  ///< per group slot
  /// Distribution of rx::TagDecodeResult::correlation_margin over the
  /// *detected* frames of the batch (CbmaSystem::run_packets feeds it) —
  /// how decisively each code beat its runner-up, the paper's PN-code
  /// separation argument as a measured quantity.
  RunningStats correlation_margin;
  /// Per-outcome packet tally indexed by rx::DecodeOutcome — the decode
  /// failure taxonomy the metrics plane turns into per-cell series.
  std::array<std::size_t, rx::kDecodeOutcomeCount> outcomes{};
  /// Signal-quality rollup over the batch's valid link-quality reports
  /// (empty unless the probe or metrics plane asked the receiver for them).
  util::LinkQualityRollup quality;

  explicit RoundStats(std::size_t group_size = 0);

  void record(std::size_t slot, bool acked_ok);
  void record_margin(double margin) { correlation_margin.add(margin); }
  /// Roll up one link-quality report; an invalid one (no soft values)
  /// adds nothing.
  void record_quality(const rx::LinkQualityReport& q) {
    if (q.valid) quality.add(q);
  }
  /// Tally one packet's decode outcome (index = rx::DecodeOutcome value;
  /// out-of-range indices are ignored rather than asserted so a future
  /// outcome state degrades to "uncounted", not a crash).
  void record_outcome(std::size_t outcome_index);
  void merge(const RoundStats& other);

  std::size_t total_sent() const;
  std::size_t total_acked() const;

  /// Per-slot ACK ratio (0 for slots that sent nothing).
  std::vector<double> ack_ratios() const;

  /// Group frame error rate: missing packets / transmitted packets —
  /// the paper's error-rate definition (§IV).
  double frame_error_rate() const;
};

/// Pushes each non-zero outcome tally of `stats` as a metrics point under
/// `scope`, named by the outcome's telemetry counter ("rx.outcome.bad_crc"),
/// so a per-scope series joins the global one of the same name.
void publish_outcomes(const RoundStats& stats, std::string_view scope);

}  // namespace cbma::core
