// The telemetry plane: the observability layer's two contracts.
//
// 1. Disabled telemetry is a strict identity (DESIGN.md §7): an instrumented
//    pipeline run with telemetry compiled in but off performs zero
//    allocations (no thread sink appears), draws zero randomness (the RNG
//    stream is bit-identical to an enabled run) — mirroring
//    rfsim_impairment_test's identity cases. The byte-identical RunRecorder
//    JSON half is pinned for every plane in core_observability_test.cpp.
// 2. The enabled path actually observes the pipeline: spans with ordered
//    percentiles, ≥ 10 named counters, a bounded flight recorder whose
//    frames carry the causal fields, and a Chrome-trace export that parses.
//
// Every test starts from the shared observability fixture. Sinks stay
// with the registry for the life of a process, so the sink_count() == 0
// test runs its body in a fresh one.
#include "core/observability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "core/recorder.h"
#include "core/system.h"
#include "observability_fixture.h"
#include "rx/receiver.h"
#include "util/json.h"
#include "util/trace_export.h"

namespace cbma::core {
namespace {

constexpr std::size_t kTags = 3;

class Telemetry : public ObservabilityTest {};

CbmaSystem make_system(bool with_impairments = false) {
  SystemConfig cfg;
  cfg.max_tags = kTags;
  if (with_impairments) {
    cfg.impairments.dropout.enabled = true;
    cfg.impairments.dropout.duty = 0.6;
    cfg.impairments.drift.enabled = true;
    cfg.impairments.drift.max_static_ppm = 100.0;
    cfg.impairments.adc.enabled = true;
    cfg.impairments.adc.full_scale = 1e-4;
  }
  auto dep = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < kTags; ++k) {
    dep.add_tag({0.15 * static_cast<double>(k), 0.6});
  }
  return CbmaSystem(cfg, dep);
}

/// The per-round facts that must not move when telemetry flips on: every
/// decode result plus the *next* RNG draw (detects any extra draw).
struct RoundDigest {
  std::vector<int> outcomes;
  std::vector<double> correlations;
  double next_draw = 0.0;

  bool operator==(const RoundDigest& o) const {
    return outcomes == o.outcomes && correlations == o.correlations &&
           next_draw == o.next_draw;
  }
};

RoundDigest run_rounds(const CbmaSystem& sys, std::uint64_t seed,
                       std::size_t rounds) {
  Rng rng(seed);
  TransmitScratch scratch;
  const TransmitOptions options;
  RoundDigest digest;
  for (std::size_t p = 0; p < rounds; ++p) {
    const auto report = sys.transmit(options, rng, scratch);
    for (const auto& r : report.results) {
      digest.outcomes.push_back(static_cast<int>(r.outcome));
      digest.correlations.push_back(r.correlation);
    }
  }
  digest.next_draw = rng.uniform();
  return digest;
}

// --- contract 1: disabled telemetry is a strict identity -------------------

TEST_F(Telemetry, DisabledRunAllocatesNoSinks) {
  in_fresh_process([] {
    telemetry::set_enabled(false);
    const auto sys = make_system(/*with_impairments=*/true);
    (void)run_rounds(sys, 77, 4);
    // No ScopedSpan, count() or record_frame() call may have touched the
    // registry: the off path must never allocate a thread sink.
    EXPECT_EQ(telemetry::sink_count(), 0u);
    EXPECT_FALSE(telemetry::enabled());
  });
}

TEST_F(Telemetry, EnablingDrawsNoRandomnessAndChangesNoResults) {
  const auto sys = make_system(/*with_impairments=*/true);
  telemetry::set_enabled(false);
  const auto off = run_rounds(sys, 20190707, 6);
  telemetry::set_enabled(true);
  const auto on = run_rounds(sys, 20190707, 6);
  telemetry::set_enabled(false);
  // Identical outcome sequence, identical correlations, and the RNG engine
  // is in the identical state afterwards — telemetry drew nothing.
  EXPECT_TRUE(off == on);
}

TEST_F(Telemetry, RecorderJsonByteIdenticalWhenDisabled) {
  SweepSpec spec;
  spec.name = "telemetry_identity";
  spec.title = "telemetry identity";
  spec.paper_ref = "tests only";
  spec.trials = 4;
  spec.base_seed = 99;

  telemetry::set_enabled(false);
  RunRecorder recorder(spec, SystemConfig{});
  recorder.record(0, "fer", 0.125);
  recorder.note("identity");
  const auto before = recorder.json();

  // Pollute the telemetry state with a real instrumented run, then disable
  // again: the document must not have moved by a byte.
  telemetry::set_enabled(true);
  (void)run_rounds(make_system(), 1, 2);
  telemetry::set_enabled(false);
  EXPECT_EQ(recorder.json(), before);

  // And the enabled document is the same document plus a telemetry section.
  telemetry::set_enabled(true);
  const auto enabled_doc = util::json_parse(recorder.json());
  telemetry::set_enabled(false);
  telemetry::reset();
  EXPECT_TRUE(enabled_doc.is_object());
  EXPECT_NO_THROW((void)enabled_doc.at("telemetry"));
}

// --- contract 2: the enabled path observes the pipeline --------------------

TEST_F(Telemetry, SnapshotHasOrderedSpansAndNamedCounters) {
  constexpr std::size_t kRounds = 10;
  telemetry::set_enabled(true);
  telemetry::reset();
  const auto sys = make_system(/*with_impairments=*/true);
  (void)run_rounds(sys, 4242, kRounds);
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  ASSERT_GE(snap.threads, 1u);
  ASSERT_FALSE(snap.spans.empty());
  std::set<std::string> span_names;
  for (const auto& s : snap.spans) {
    span_names.insert(s.name);
    ASSERT_GT(s.count, 0u);
    EXPECT_LE(s.min_ns, s.max_ns);
    EXPECT_GE(s.total_ns, s.max_ns);
    EXPECT_LE(s.p50_ns, s.p90_ns);
    EXPECT_LE(s.p90_ns, s.p99_ns);
    EXPECT_GT(s.mean_ns, 0.0);
  }
  // The transmit pipeline stages must all have fired.
  for (const char* expected :
       {"transmit/total", "transmit/spread", "transmit/impairments",
        "channel/synthesis", "rx/process", "rx/frame_sync"}) {
    EXPECT_TRUE(span_names.count(expected)) << "missing span " << expected;
  }
  const auto total = std::find_if(
      snap.spans.begin(), snap.spans.end(),
      [](const auto& s) { return s.name == "transmit/total"; });
  ASSERT_NE(total, snap.spans.end());
  EXPECT_EQ(total->count, kRounds);

  // ≥ 10 distinct named counters (the acceptance bar), with the
  // deterministic ones at their exact values.
  std::set<std::string> counter_names;
  std::uint64_t packets = 0, frames_sent = 0, windows = 0, outcomes = 0;
  for (const auto& c : snap.counters) {
    counter_names.insert(c.name);
    ASSERT_GT(c.value, 0u);
    if (c.name == "transmit.packets") packets = c.value;
    if (c.name == "transmit.frames_sent") frames_sent = c.value;
    if (c.name == "channel.windows") windows = c.value;
    if (c.name.rfind("rx.outcome.", 0) == 0) outcomes += c.value;
  }
  EXPECT_GE(counter_names.size(), 10u);
  EXPECT_EQ(packets, kRounds);
  EXPECT_EQ(frames_sent, kRounds * kTags);
  EXPECT_EQ(windows, kRounds);
  EXPECT_EQ(outcomes, kRounds * kTags);

  // Flight recorder: bounded, ordered, and carrying the causal fields.
  ASSERT_FALSE(snap.frames.empty());
  EXPECT_LE(snap.frames.size(), telemetry::kFlightRecorderCapacity);
  for (std::size_t i = 0; i < snap.frames.size(); ++i) {
    const auto& f = snap.frames[i];
    if (i > 0) {
      EXPECT_GT(f.seq, snap.frames[i - 1].seq);
    }
    EXPECT_LT(f.tag_id, kTags);
    EXPECT_GT(f.pn_code_length, 0u);
    EXPECT_LE(f.outcome,
              static_cast<std::uint8_t>(rx::DecodeOutcome::kIdMismatch));
    // make_system enabled dropout + drift + adc: exactly those gates.
    EXPECT_EQ(f.impairment_gates, telemetry::kGateDropout |
                                      telemetry::kGateDrift |
                                      telemetry::kGateAdc);
  }
  telemetry::reset();
}

TEST_F(Telemetry, FlightRecorderKeepsOnlyTheLastFrames) {
  // Offer more frames than the ring holds: 3 tags per round, a few rounds
  // past capacity.
  constexpr std::size_t kRounds =
      telemetry::kFlightRecorderCapacity / kTags + 4;
  telemetry::set_enabled(true);
  telemetry::reset();
  const auto sys = make_system();
  (void)run_rounds(sys, 7, kRounds);
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  ASSERT_EQ(snap.frames.size(), telemetry::kFlightRecorderCapacity);
  // The ring keeps the *latest* frames: seq numbers are the top of the
  // global sequence, contiguous on this single recording thread.
  for (std::size_t i = 1; i < snap.frames.size(); ++i) {
    EXPECT_EQ(snap.frames[i].seq, snap.frames[i - 1].seq + 1);
  }
  EXPECT_EQ(snap.frames.back().seq, kRounds * kTags - 1u);
  telemetry::reset();
}

TEST_F(Telemetry, ChromeTraceExportParsesAndCoversSpansAndFrames) {
  telemetry::set_enabled(true);
  telemetry::set_trace_enabled(true);
  telemetry::reset();
  const auto sys = make_system();
  (void)run_rounds(sys, 3, 3);
  const auto snap = telemetry::snapshot();
  telemetry::set_trace_enabled(false);
  telemetry::set_enabled(false);

  ASSERT_FALSE(snap.events.empty());
  const auto doc = util::json_parse(
      util::chrome_trace_json(snap.events, snap.frames));
  ASSERT_TRUE(doc.is_object());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  bool saw_slice = false, saw_instant = false, saw_t0 = false;
  for (const auto& e : events.array) {
    const auto& ph = e.at("ph").string;
    if (ph == "X") {
      saw_slice = true;
      EXPECT_GE(e.at("dur").number, 0.0);
    }
    if (ph == "i") {
      saw_instant = true;
      EXPECT_NO_THROW((void)e.at("args").at("outcome"));
    }
    EXPECT_GE(e.at("ts").number, 0.0);
    if (e.at("ts").number == 0.0) saw_t0 = true;
  }
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_t0) << "timestamps should be rebased to t = 0";

  // The file writer produces the same parseable document.
  const auto path = ::testing::TempDir() + "cbma_trace_test.json";
  ASSERT_TRUE(util::write_chrome_trace(path, snap.events, snap.frames));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NO_THROW((void)util::json_parse(buffer.str()));
  telemetry::reset();
}

TEST_F(Telemetry, BenchJsonTelemetrySectionMatchesSchema) {
  telemetry::set_enabled(true);
  telemetry::reset();
  (void)run_rounds(make_system(), 11, 4);

  SweepSpec spec;
  spec.name = "telemetry_schema";
  spec.title = "telemetry schema";
  spec.paper_ref = "tests only";
  spec.trials = 4;
  spec.base_seed = 11;
  RunRecorder recorder(spec, SystemConfig{});
  recorder.record(0, "fer", 0.5);
  const auto doc = util::json_parse(recorder.json());
  telemetry::set_enabled(false);

  const auto& tel = doc.at("telemetry");
  ASSERT_TRUE(tel.is_object());
  EXPECT_GE(tel.at("threads").number, 1.0);
  const auto& spans = tel.at("spans");
  ASSERT_TRUE(spans.is_array());
  ASSERT_FALSE(spans.array.empty());
  for (const auto& s : spans.array) {
    for (const char* k : {"count", "total_ns", "min_ns", "max_ns", "mean_ns",
                          "p50_ns", "p90_ns", "p99_ns"}) {
      EXPECT_NO_THROW((void)s.at(k)) << "span missing key " << k;
    }
    EXPECT_FALSE(s.at("name").string.empty());
  }
  ASSERT_TRUE(tel.at("counters").is_object());
  const auto& fr = tel.at("flight_recorder");
  ASSERT_TRUE(fr.is_array());
  ASSERT_FALSE(fr.array.empty());
  // Outcomes are exported as the human-readable rx labels, not integers.
  const auto& outcome = fr.array[0].at("outcome").string;
  EXPECT_FALSE(outcome.empty());
  telemetry::reset();
}

}  // namespace
}  // namespace cbma::core
