// Robustness under injected faults — BER/throughput vs excitation dropout
// duty cycle and tag chip-clock drift (rfsim::ImpairmentSuite).
//
// Generalizes Fig. 12's continuous-tone vs OFDM contrast into a swept grid:
// duty 1.0 is the clean always-on excitation; lower duties gate the carrier
// in 802.11-frame-scale bursts the tags cannot predict. The paper's
// qualitative ordering (continuous ≫ bursty excitation) must reproduce at
// every drift setting, and the ARQ layer shows how much of the raw loss a
// retry budget claws back. Every per-frame failure is a reported
// DecodeOutcome — an all-failed point records zeros and "n/a", never a
// crash (the graceful-degradation contract this bench exists to prove).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"
#include "core/system.h"
#include "mac/arq.h"
#include "mac/throughput.h"
#include "phy/frame.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

using namespace cbma;

namespace {

constexpr std::size_t kTags = 3;

rfsim::Deployment make_deployment() {
  auto dep = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < kTags; ++k) {
    const double angle = 2.0 * units::kPi * static_cast<double>(k) /
                         static_cast<double>(kTags);
    dep.add_tag({0.25 * std::cos(angle), 0.75 + 0.25 * std::sin(angle)});
  }
  return dep;
}

}  // namespace

int main() {
  core::SystemConfig cfg;
  cfg.max_tags = kTags;

  // Axis 0: excitation on-air fraction (1.0 = continuous tone, the clean
  // Fig. 12 condition; 0.42 ≈ the paper's 500 µs-frame / 700 µs-gap OFDM).
  const std::vector<double> duties{1.0, 0.75, 0.5, 0.3};
  // Axis 1: chip-clock error spread across the group (static ± wander/4).
  const std::vector<double> drifts_ppm{0.0, 50.0, 200.0};
  const std::size_t n_packets = bench::trials(300);

  const auto spec = bench::spec(
      "robustness_impairments",
      "Robustness — reception under excitation dropout and clock drift",
      "generalizes Fig. 12 (tone vs OFDM excitation) via ImpairmentSuite",
      {core::Axis::numeric("dropout_duty", duties),
       core::Axis::numeric("drift_ppm", drifts_ppm)},
      n_packets);
  core::RunRecorder recorder(spec, cfg);
  recorder.print_header();

  core::SweepRunner(spec).run([&](const core::SweepPoint& point) {
    core::SystemConfig point_cfg = cfg;
    const double duty = point.value(0);
    const double ppm = point.value(1);
    if (duty < 1.0) {
      point_cfg.impairments.dropout.enabled = true;
      point_cfg.impairments.dropout.duty = duty;
      point_cfg.impairments.dropout.mean_burst_s = 500e-6;
    }
    if (ppm > 0.0) {
      point_cfg.impairments.drift.enabled = true;
      point_cfg.impairments.drift.max_static_ppm = ppm;
      point_cfg.impairments.drift.wander_ppm = ppm / 4.0;
    }

    core::CbmaSystem sys(point_cfg, make_deployment());
    Rng rng(point.seed());

    // Saturated stop-and-wait ARQ: every slot always owes a frame, so the
    // whole group transmits each round and the tracker accounts retries.
    mac::ArqTracker arq({/*max_attempts=*/4}, kTags);
    core::TransmitScratch scratch;
    const core::TransmitOptions options;
    std::size_t sent = 0, decoded = 0;
    std::size_t no_sync = 0, not_detected = 0, bad_crc = 0, truncated = 0;
    std::size_t id_mismatch = 0;
    // Decoded-per-round spread over rounds where anything got through at
    // all — legitimately empty under deep dropout, hence the count() guard
    // before min()/max() below (RunningStats throws on empty extremes).
    RunningStats nonempty_rounds;
    for (std::size_t p = 0; p < n_packets; ++p) {
      for (std::size_t slot = 0; slot < kTags; ++slot) {
        if (!arq.pending(slot)) arq.offer(slot);
      }
      const auto due = arq.due();
      const auto report = sys.transmit(options, rng, scratch);
      arq.on_round(report.ack, due);
      sent += kTags;
      decoded += report.decoded_count();
      no_sync += report.outcome_count(rx::DecodeOutcome::kNoFrameSync);
      not_detected += report.outcome_count(rx::DecodeOutcome::kNotDetected);
      bad_crc += report.outcome_count(rx::DecodeOutcome::kBadCrc);
      truncated += report.outcome_count(rx::DecodeOutcome::kTruncated);
      id_mismatch += report.outcome_count(rx::DecodeOutcome::kIdMismatch);
      if (report.decoded_count() > 0) {
        nonempty_rounds.add(static_cast<double>(report.decoded_count()));
      }
    }

    const double prr =
        static_cast<double>(decoded) / static_cast<double>(sent);
    mac::CbmaRate rate;
    rate.per_tag_bitrate_bps = point_cfg.bitrate_bps;
    rate.n_tags = kTags;
    rate.frame_bits = phy::frame_bit_count(point_cfg.payload_bytes,
                                           point_cfg.preamble_bits);
    rate.payload_bits = point_cfg.payload_bytes * 8;
    rate.frame_error_rate = 1.0 - prr;

    recorder.record(point.flat(), "prr", prr);
    recorder.record(point.flat(), "goodput_kbps",
                    mac::cbma_throughput(rate).aggregate_goodput_bps / 1e3);
    recorder.record(point.flat(), "arq_delivery_ratio",
                    arq.stats().delivery_ratio());
    recorder.record(point.flat(), "frac_no_sync",
                    static_cast<double>(no_sync) / static_cast<double>(sent));
    recorder.record(point.flat(), "frac_not_detected",
                    static_cast<double>(not_detected) /
                        static_cast<double>(sent));
    recorder.record(point.flat(), "frac_bad_crc",
                    static_cast<double>(bad_crc) / static_cast<double>(sent));
    recorder.record(point.flat(), "frac_truncated",
                    static_cast<double>(truncated) /
                        static_cast<double>(sent));
    // Raw per-outcome tallies alongside the fractions: downstream analysis
    // (failure-taxonomy queries over BENCH_*.json) should not have to
    // reconstruct integer counts from rounded ratios. Mirrors the six
    // DecodeOutcome states plus the denominators.
    recorder.record(point.flat(), "count_sent", static_cast<double>(sent));
    recorder.record(point.flat(), "count_ok", static_cast<double>(decoded));
    recorder.record(point.flat(), "count_no_sync",
                    static_cast<double>(no_sync));
    recorder.record(point.flat(), "count_not_detected",
                    static_cast<double>(not_detected));
    recorder.record(point.flat(), "count_bad_crc",
                    static_cast<double>(bad_crc));
    recorder.record(point.flat(), "count_truncated",
                    static_cast<double>(truncated));
    recorder.record(point.flat(), "count_id_mismatch",
                    static_cast<double>(id_mismatch));
    recorder.record(point.flat(), "min_decoded_nonempty_round",
                    nonempty_rounds.count() > 0 ? nonempty_rounds.min() : 0.0);
    recorder.record(point.flat(), "max_decoded_nonempty_round",
                    nonempty_rounds.count() > 0 ? nonempty_rounds.max() : 0.0);
  });

  const auto flat = [&](std::size_t d, std::size_t j) {
    return d * drifts_ppm.size() + j;
  };

  Table table({"excitation duty", "drift ppm", "PRR", "goodput",
               "ARQ delivery", "no-sync", "not-detected", "bad-CRC"});
  for (std::size_t d = 0; d < duties.size(); ++d) {
    for (std::size_t j = 0; j < drifts_ppm.size(); ++j) {
      const std::size_t f = flat(d, j);
      table.add_row(
          {duties[d] >= 1.0 ? "continuous" : Table::percent(duties[d], 0),
           Table::num(drifts_ppm[j], 0),
           Table::percent(recorder.metric(f, "prr"), 1),
           Table::num(recorder.metric(f, "goodput_kbps"), 0) + " kbps",
           Table::percent(recorder.metric(f, "arq_delivery_ratio"), 1),
           Table::percent(recorder.metric(f, "frac_no_sync"), 1),
           Table::percent(recorder.metric(f, "frac_not_detected"), 1),
           Table::percent(recorder.metric(f, "frac_bad_crc"), 1)});
    }
  }
  recorder.print_table(table);

  const double clean = recorder.metric(flat(0, 0), "prr");
  const double deep_dropout = recorder.metric(flat(duties.size() - 1, 0), "prr");
  const double max_drift = recorder.metric(flat(0, drifts_ppm.size() - 1), "prr");
  bool ordering_every_drift = true;
  for (std::size_t j = 0; j < drifts_ppm.size(); ++j) {
    if (recorder.metric(flat(0, j), "prr") <
        recorder.metric(flat(duties.size() - 1, j), "prr")) {
      ordering_every_drift = false;
    }
  }

  std::printf("continuous excitation beats deep dropout (Fig. 12 ordering): "
              "%s (%.1f%% -> %.1f%%)\n",
              recorder.check("continuous excitation beats deep dropout",
                             clean > deep_dropout)
                  ? "HOLDS"
                  : "VIOLATED",
              100.0 * clean, 100.0 * deep_dropout);
  std::printf("ordering holds at every drift setting: %s\n",
              recorder.check("dropout ordering holds at every drift setting",
                             ordering_every_drift)
                  ? "HOLDS"
                  : "VIOLATED");
  std::printf("clock drift alone costs less than deep dropout: %s "
              "(drift %.1f%% vs dropout %.1f%%)\n",
              recorder.check("drift alone costs less than deep dropout",
                             max_drift >= deep_dropout)
                  ? "HOLDS"
                  : "VIOLATED",
              100.0 * max_drift, 100.0 * deep_dropout);

  // Anomaly watchdog: rules apply to every grid point, so they must stay
  // silent under legitimate physics (deep dropout drives PRR to zero at
  // small trial counts) and only fire on pipeline breakage or a point
  // collapsing far below its neighbors. Warnings land on stderr and in the
  // JSON "watchdog" section.
  const std::size_t fired = recorder.run_watchdog({
      // Every point must have attempted frames — zero means the bench
      // itself broke, not that the channel got hard.
      {.metric = "count_sent", .floor = 0.5},
      // Dropout/drift degrade smoothly; a point far below the mean of its
      // single-axis neighbors is an anomaly, not physics.
      {.metric = "prr", .neighbor_tolerance = 0.5},
  });
  if (fired > 0) {
    std::printf("\nwatchdog: %zu anomaly warning(s) — see stderr / JSON\n",
                fired);
  }

  // CBMA_METRICS=<path>: a short *sequential* timeline pass (the sweep
  // above runs parallel, which advance_window()'s contract forbids) —
  // per-window PRR and decode-outcome series under "cond=duty<d>/ppm<p>"
  // scopes, across the dropout axis at the drift extremes.
  if (metrics::enabled()) {
    constexpr std::size_t kWindows = 6;
    const std::size_t packets_per_window =
        std::max<std::size_t>(1, n_packets / 30);
    std::size_t condition = 0;
    for (const double duty : duties) {
      for (const double ppm : {drifts_ppm.front(), drifts_ppm.back()}) {
        core::SystemConfig point_cfg = cfg;
        if (duty < 1.0) {
          point_cfg.impairments.dropout.enabled = true;
          point_cfg.impairments.dropout.duty = duty;
          point_cfg.impairments.dropout.mean_burst_s = 500e-6;
        }
        if (ppm > 0.0) {
          point_cfg.impairments.drift.enabled = true;
          point_cfg.impairments.drift.max_static_ppm = ppm;
          point_cfg.impairments.drift.wander_ppm = ppm / 4.0;
        }
        core::CbmaSystem sys(point_cfg, make_deployment());
        Rng rng(util::point_seed(bench::base_seed(), 7000 + condition));
        char scope[64];
        std::snprintf(scope, sizeof scope, "cond=duty%g/ppm%g", duty, ppm);
        for (std::size_t w = 0; w < kWindows; ++w) {
          const auto stats = sys.run_packets(packets_per_window, rng);
          const auto sent_w = stats.total_sent();
          metrics::push(
              "bench.prr", scope,
              sent_w > 0 ? static_cast<double>(stats.total_acked()) /
                               static_cast<double>(sent_w)
                         : 0.0);
          core::publish_outcomes(stats, scope);
          metrics::advance_window();
        }
        ++condition;
      }
    }
  }
  return recorder.finish();
}
