// Probe plane + sweep watchdog coverage: the strict-identity
// contract (enabling the probe must not change any decode result or RNG
// draw), the CBPROBE1 dump + manifest round trip (parsed back with
// util::json_parse and cross-checked against the binary), the
// link-quality JSON section, exports that do not depend on how sweep and
// nested cell workers interleave, and scan_sweep_anomalies' floor/neighbor rules on
// synthetic grids.
//
// Every test starts from the shared observability fixture, so enabling
// probing here cannot leak into other tests.
#include "core/observability.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/system.h"
#include "net/network.h"
#include "observability_fixture.h"
#include "util/json.h"

namespace cbma::core {
namespace {

class CoreProbe : public ObservabilityTest {};

SystemConfig three_tag_config() {
  SystemConfig config;
  config.max_tags = 3;
  return config;
}

rfsim::Deployment three_tag_deployment() {
  auto deployment = rfsim::Deployment::paper_frame();
  deployment.add_tag({0.0, 0.4});
  deployment.add_tag({0.3, -0.7});
  deployment.add_tag({-0.2, 1.0});
  return deployment;
}

/// The link rows of a frame log: its rows' valid reports, in row order.
std::vector<util::LinkQuality> link_rows(
    const std::vector<telemetry::FrameRow>& rows) {
  std::vector<util::LinkQuality> out;
  for (const auto& row : rows) {
    if (row.has_quality) out.push_back(row.quality);
  }
  return out;
}

/// Everything a probe must never change: the decode results and the next
/// RNG draw after the transmission.
struct RunDigest {
  std::vector<bool> detected;
  std::vector<bool> crc_ok;
  std::vector<double> correlation;
  std::vector<double> margin;
  std::vector<std::vector<std::uint8_t>> payloads;
  double next_draw = 0.0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest run_once() {
  CbmaSystem system(three_tag_config(), three_tag_deployment());
  Rng rng(23);
  const auto report = system.transmit(TransmitOptions{}, rng);
  RunDigest digest;
  for (const auto& r : report.results) {
    digest.detected.push_back(r.detected);
    digest.crc_ok.push_back(r.crc_ok);
    digest.correlation.push_back(r.correlation);
    digest.margin.push_back(r.correlation_margin);
    digest.payloads.push_back(r.payload);
  }
  digest.next_draw = rng.uniform();
  return digest;
}

TEST_F(CoreProbe, EnablingProbeChangesNoResultAndDrawsNoRng) {
  probe::set_enabled(false);
  telemetry::reset();
  const auto off = run_once();
  // The off path stored nothing.
  EXPECT_TRUE(telemetry::snapshot().probe.taps.empty());

  probe::set_dump_path("core_probe_identity.bin");
  probe::set_enabled(true);
  const auto on = run_once();
  const auto captured = telemetry::snapshot().probe.taps.size();
  probe::set_enabled(false);
  telemetry::reset();

  EXPECT_GT(captured, 0u);  // the probed run really recorded
  EXPECT_TRUE(off == on);   // ...without perturbing a single result or draw
}

TEST_F(CoreProbe, DumpAndManifestRoundTrip) {
  probe::set_dump_path("core_probe_roundtrip.bin");
  probe::set_enabled(true);
  telemetry::reset();
  CbmaSystem system(three_tag_config(), three_tag_deployment());
  Rng rng(7);
  const auto report = system.transmit(TransmitOptions{}, rng);
  ASSERT_FALSE(report.link_quality.empty());
  const auto snap = telemetry::snapshot();
  const auto& capture = snap.probe;
  ASSERT_TRUE(write_probe_dump("core_probe_roundtrip.bin", snap));
  probe::set_enabled(false);
  telemetry::reset();

  // Binary: magic + at least one record.
  std::ifstream dump("core_probe_roundtrip.bin", std::ios::binary);
  ASSERT_TRUE(dump.good());
  char magic[8] = {};
  dump.read(magic, 8);
  EXPECT_EQ(std::string(magic, 8), "CBPROBE1");
  dump.seekg(0, std::ios::end);
  const auto dump_bytes = static_cast<std::uint64_t>(dump.tellg());

  // Manifest: parses, indexes every record, and its byte accounting
  // matches the file that was actually written.
  std::ifstream manifest_in("core_probe_roundtrip.bin.json");
  ASSERT_TRUE(manifest_in.good());
  std::string text((std::istreambuf_iterator<char>(manifest_in)),
                   std::istreambuf_iterator<char>());
  const auto manifest = util::json_parse(text);
  ASSERT_TRUE(manifest.is_object());
  EXPECT_EQ(manifest.at("magic").string, "CBPROBE1");
  EXPECT_EQ(manifest.at("schema_version").number, kProbeDumpSchemaVersion);
  EXPECT_EQ(manifest.at("dump_bytes").number,
            static_cast<double>(dump_bytes));
  const auto& taps = manifest.at("taps");
  ASSERT_TRUE(taps.is_array());
  ASSERT_EQ(taps.array.size(), capture.taps.size());
  for (std::size_t i = 0; i < taps.array.size(); ++i) {
    const auto& entry = taps.array[i];
    EXPECT_EQ(entry.at("seq").number,
              static_cast<double>(capture.taps[i].seq));
    EXPECT_EQ(entry.at("tap").string, probe::tap_name(capture.taps[i].tap));
    EXPECT_EQ(entry.at("doubles").number,
              static_cast<double>(capture.taps[i].data.size()));
    // Records are back-to-back: payload offset = header end, and the
    // manifest's offsets must stay inside the file.
    EXPECT_EQ(entry.at("payload_offset").number,
              entry.at("offset").number + 32.0);
    EXPECT_LE(entry.at("payload_offset").number +
                  8.0 * entry.at("doubles").number,
              static_cast<double>(dump_bytes));
  }
  const auto& link = manifest.at("link_quality");
  ASSERT_TRUE(link.is_array());
  EXPECT_EQ(link.array.size(), link_rows(snap.frames).size());

  std::remove("core_probe_roundtrip.bin");
  std::remove("core_probe_roundtrip.bin.json");
}

TEST_F(CoreProbe, LinkQualityJsonSectionAggregatesPerTag) {
  probe::set_dump_path("core_probe_section.bin");
  probe::set_enabled(true);
  telemetry::reset();
  telemetry::FrameRow row;
  row.tag = 1;
  row.decoded = true;
  row.has_quality = true;
  row.quality.snr_db = 10.0;
  telemetry::record_frames({&row, 1});
  row.quality.snr_db = 20.0;
  row.decoded = false;
  telemetry::record_frames({&row, 1});
  row.tag = 0;
  row.quality.snr_db = 5.0;
  telemetry::record_frames({&row, 1});
  // A frame without a valid report is no link row.
  row.tag = 2;
  row.has_quality = false;
  telemetry::record_frames({&row, 1});

  const ObservabilityPlane& plane = observability_planes()[1];
  ASSERT_STREQ(plane.name, "probe");
  util::JsonWriter w;
  w.begin_object();
  plane.write_json_section(w, telemetry::snapshot());
  w.end_object();
  probe::set_enabled(false);
  telemetry::reset();

  const auto doc = util::json_parse(w.str());
  const auto& lq = doc.at("link_quality");
  EXPECT_EQ(lq.at("samples").number, 3.0);
  EXPECT_EQ(lq.at("dropped").number, 0.0);
  const auto& tags = lq.at("tags");
  ASSERT_EQ(tags.array.size(), 2u);  // ascending tag order
  EXPECT_EQ(tags.array[0].at("tag").number, 0.0);
  EXPECT_EQ(tags.array[0].at("frames").number, 1.0);
  EXPECT_EQ(tags.array[0].at("snr_db_mean").number, 5.0);
  EXPECT_EQ(tags.array[1].at("tag").number, 1.0);
  EXPECT_EQ(tags.array[1].at("frames").number, 2.0);
  EXPECT_EQ(tags.array[1].at("decoded").number, 1.0);
  EXPECT_EQ(tags.array[1].at("snr_db_mean").number, 15.0);
}

/// Every link-quality report of 24 seeded transmissions with the given
/// planes on, plus the frame-log rows they produced.
struct PlaneRun {
  std::vector<rx::LinkQualityReport> reports;
  std::vector<telemetry::FrameRow> rows;
};

PlaneRun link_quality_with(bool probe_on, bool metrics_on) {
  quiesce_observability();
  probe::set_enabled(probe_on);
  metrics::set_enabled(metrics_on);
  CbmaSystem system(three_tag_config(), three_tag_deployment());
  Rng rng(41);
  PlaneRun run;
  for (int round = 0; round < 24; ++round) {
    const auto report = system.transmit(TransmitOptions{}, rng);
    run.reports.insert(run.reports.end(), report.link_quality.begin(),
                       report.link_quality.end());
  }
  run.rows = telemetry::snapshot().frames;
  quiesce_observability();
  return run;
}

/// The reports' fields as raw bits, so -0.0 against 0.0 or a NaN would
/// differ too.
std::vector<std::uint64_t> bits_of(
    const std::vector<rx::LinkQualityReport>& reports) {
  std::vector<std::uint64_t> out;
  for (const auto& q : reports) {
    out.push_back(q.valid ? 1 : 0);
    for (const auto& [name, field] : util::kLinkQualityFields) {
      out.push_back(std::bit_cast<std::uint64_t>(q.*field));
    }
  }
  return out;
}

TEST_F(CoreProbe, LinkQualityDoesNotDependOnWhichPlaneAskedForIt) {
  const PlaneRun probe_only = link_quality_with(true, false);
  const PlaneRun metrics_only = link_quality_with(false, true);
  const PlaneRun both = link_quality_with(true, true);

  ASSERT_EQ(probe_only.reports.size(), 24u * 3u);
  EXPECT_EQ(bits_of(probe_only.reports), bits_of(metrics_only.reports));
  EXPECT_EQ(bits_of(probe_only.reports), bits_of(both.reports));

  // One frame row per frame sent; one link row per valid report, carrying
  // that report's numbers, whichever plane armed the log.
  std::vector<util::LinkQuality> valid;
  for (const auto& q : probe_only.reports) {
    if (q.valid) valid.push_back(q);
  }
  ASSERT_FALSE(valid.empty());
  EXPECT_EQ(probe_only.rows.size(), 24u * 3u);
  EXPECT_EQ(link_rows(probe_only.rows), valid);
  EXPECT_EQ(link_rows(metrics_only.rows), valid);
  EXPECT_EQ(link_rows(both.rows), valid);

  // The rollup counts the same valid reports the rows hold, in row order.
  quiesce_observability();
  probe::set_enabled(true);
  CbmaSystem system(three_tag_config(), three_tag_deployment());
  Rng rng(41);
  const RoundStats stats = system.run_packets(24, rng);
  util::LinkQualityRollup from_rows;
  for (const auto& q : link_rows(telemetry::snapshot().frames)) {
    from_rows.add(q);
  }
  quiesce_observability();
  EXPECT_EQ(from_rows.frames, valid.size());
  EXPECT_EQ(stats.quality.frames, from_rows.frames);
  EXPECT_EQ(stats.quality.sum, from_rows.sum);

  // A probed network round, no cap binding: one row per frame sent, and
  // one link row per frame its cells' rollups counted.
  quiesce_observability();
  probe::set_enabled(true);
  telemetry::set_enabled(true);
  net::NetworkConfig config;
  config.cell.max_tags = 4;
  config.packets_per_round = 3;
  auto network = net::Network::grid(config, 8.0, 4.0, 2, 1);
  Rng placement(5);
  network.place_random_tags(8, placement);
  const auto round = network.run_round(17, 2);
  const auto snap = telemetry::snapshot();
  quiesce_observability();
  ASSERT_EQ(snap.dropped_frames, 0u);
  std::size_t cell_quality = 0;
  for (const auto& cell : round.cells) cell_quality += cell.stats.quality.frames;
  std::uint64_t frames_sent = 0;
  for (const auto& c : snap.counters) {
    if (c.id == telemetry::Counter::kTransmitFramesSent) frames_sent = c.value;
  }
  EXPECT_GT(frames_sent, 0u);
  EXPECT_EQ(snap.frames.size(), frames_sent);
  EXPECT_GT(cell_quality, 0u);
  EXPECT_EQ(link_rows(snap.frames).size(), cell_quality);
}

/// A probed and recorded sweep's exports: the link_quality section, the
/// dump and the manifest, as bytes, and the flight recorder's JSON without
/// its timestamps, plus how many records each sweep point holds.
struct ProbeExport {
  std::string section;
  std::string dump;
  std::string manifest;
  std::string flight_recorder;
  std::vector<std::size_t> per_point;  ///< index 0 = outside any sweep
  std::size_t dropped = 0;
  std::size_t soft_bits = 0;  ///< records the soft_bits tap kept
  std::size_t frames = 0;     ///< rows the frame log kept
};

/// The telemetry section's "flight_recorder" array (its last key) with
/// every row's ts_ns, the one field that reads the clock, taken out.
std::string flight_recorder_of(const telemetry::Snapshot& snap) {
  util::JsonWriter w;
  w.begin_object();
  observability_planes()[0].write_json_section(w, snap);
  w.end_object();
  const std::string section = w.str();
  const std::size_t at = section.find("\"flight_recorder\"");
  EXPECT_NE(at, std::string::npos);
  return std::regex_replace(section.substr(at),
                            std::regex("\"ts_ns\":[0-9]+,"), "");
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The network each sweep point runs: `tags` tags per cell of a two-cell
/// grid, `packets` packets per cell round.
struct ProbedNetwork {
  std::size_t points = 8;
  std::size_t tags = 2;
  std::size_t packets = 2;
  std::size_t payload_bytes = 8;
};

/// `shape.points` sweep points on `sweep_workers` threads, each running one
/// probed and recorded round of a two-cell network with its cells on
/// `cell_workers` threads. The default shape is small enough that no
/// capture cap binds.
ProbeExport probed_network_sweep(std::size_t sweep_workers,
                                 std::size_t cell_workers,
                                 ProbedNetwork shape = {}) {
  telemetry::reset();
  SweepSpec spec;
  spec.name = "probe_order";
  spec.base_seed = 31;
  std::vector<double> xs(shape.points);
  for (std::size_t p = 0; p < xs.size(); ++p) xs[p] = static_cast<double>(p);
  spec.axes.push_back(Axis::numeric("x", xs));
  SweepRunner(spec).run(
      [&](const SweepPoint& point) {
        net::NetworkConfig config;
        config.cell.code_family = pn::CodeFamily::kGold;
        config.cell.code_min_length = 31;
        config.cell.max_tags = shape.tags;
        config.cell.payload_bytes = shape.payload_bytes;
        config.cell.tx_power_dbm = 30.0;
        config.packets_per_round = shape.packets;
        auto network = net::Network::grid(config, 8.0, 4.0, 2, 1);
        Rng rng(point.seed());
        network.place_random_tags(2 * shape.tags, rng);
        (void)network.run_round(point.seed(), cell_workers);
      },
      sweep_workers);
  const auto snap = telemetry::snapshot();
  util::JsonWriter w;
  w.begin_object();
  observability_planes()[1].write_json_section(w, snap);
  w.end_object();
  // One file per test: ctest runs the tests as parallel processes.
  const std::string path =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  EXPECT_TRUE(write_probe_dump(path, snap));
  ProbeExport out{w.str(),
                  read_bytes(path),
                  read_bytes(path + ".json"),
                  flight_recorder_of(snap),
                  std::vector<std::size_t>(shape.points + 1, 0),
                  snap.probe.dropped_taps + snap.dropped_frames,
                  0,
                  snap.frames.size()};
  for (const auto& r : snap.probe.taps) {
    ++out.per_point.at(r.point);
    out.soft_bits += r.tap == probe::Tap::kSoftBits;
  }
  for (const auto& r : snap.frames) ++out.per_point.at(r.point);
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  return out;
}

/// Three sweeps at (4 sweep workers, 4 cell workers) must export exactly
/// what `serial`, the sweep at (1, 1), did.
void expect_parallel_sweeps_match(const ProbeExport& serial,
                                  ProbedNetwork shape) {
  for (int run = 0; run < 3; ++run) {
    const ProbeExport parallel = probed_network_sweep(4, 4, shape);
    EXPECT_EQ(serial.dropped, parallel.dropped) << "run " << run;
    EXPECT_EQ(serial.per_point, parallel.per_point) << "run " << run;
    EXPECT_EQ(serial.section, parallel.section) << "run " << run;
    // Megabyte-scale: compare without printing them on failure.
    EXPECT_TRUE(serial.dump == parallel.dump) << "run " << run;
    EXPECT_TRUE(serial.manifest == parallel.manifest) << "run " << run;
    EXPECT_TRUE(serial.flight_recorder == parallel.flight_recorder)
        << "run " << run;
  }
}

TEST_F(CoreProbe, SweepExportsDoNotDependOnTheWorkerCount) {
  // Sweep workers and the cell workers nested in them append records in
  // whatever order they interleave; every worker carries its caller's
  // sweep point, and the export orders records by (point, innermost
  // parallel_for item), each of which runs on one thread. On one thread
  // every record carries its body's point by construction, so identical
  // exports prove the workers label theirs alike.
  probe::set_enabled(true);
  telemetry::set_enabled(true);
  const ProbeExport serial = probed_network_sweep(1, 1);
  ASSERT_EQ(serial.dropped, 0u) << "a capture cap bound; shrink the network";
  EXPECT_EQ(serial.per_point[0], 0u) << "records outside any sweep point";
  for (std::size_t p = 1; p < serial.per_point.size(); ++p) {
    EXPECT_GT(serial.per_point[p], 0u) << "point " << p;
  }
  expect_parallel_sweeps_match(serial, {});
}

TEST_F(CoreProbe, CappedSweepExportsDoNotDependOnTheWorkerCount) {
  // Thirty points of two ten-tag cells at ten one-byte packets a round
  // overflow the soft_bits tap and the frame log: a full store keeps the
  // records with the smallest (point, item, capture order), which no
  // interleaving of the workers changes.
  probe::set_enabled(true);
  telemetry::set_enabled(true);
  const ProbedNetwork shape{
      .points = 30, .tags = 10, .packets = 10, .payload_bytes = 1};
  const ProbeExport serial = probed_network_sweep(1, 1, shape);
  ASSERT_EQ(serial.soft_bits, probe::kMaxRecordsPerTap)
      << "the soft_bits cap must bind";
  ASSERT_EQ(serial.frames, telemetry::kMaxFrameRows)
      << "the frame-log cap must bind";
  ASSERT_GT(serial.dropped, 0u);
  expect_parallel_sweeps_match(serial, shape);
}

TEST_F(CoreProbe, WatchdogFloorRuleFiresOnBreach) {
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0, 2.0, 3.0})};
  const std::vector<double> prr{1.0, 0.9, 0.05, 0.8};
  const auto metric = [&](std::size_t flat, const std::string& name) {
    EXPECT_EQ(name, "prr");
    return prr[flat];
  };

  const auto warnings = scan_sweep_anomalies(
      spec, metric, {{.metric = "prr", .floor = 0.1}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].metric, "prr");
  EXPECT_EQ(warnings[0].flat, 2u);
  EXPECT_EQ(warnings[0].kind, "floor");
  EXPECT_DOUBLE_EQ(warnings[0].value, 0.05);
  EXPECT_DOUBLE_EQ(warnings[0].reference, 0.1);
  EXPECT_FALSE(warnings[0].detail.empty());
}

TEST_F(CoreProbe, WatchdogFloorRuleOrientsForLowerIsBetter) {
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0})};
  const std::vector<double> fer{0.02, 0.6};
  const auto metric = [&](std::size_t flat, const std::string&) {
    return fer[flat];
  };
  const auto warnings = scan_sweep_anomalies(
      spec, metric,
      {{.metric = "fer", .floor = 0.5, .higher_is_better = false}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].flat, 1u);
  EXPECT_DOUBLE_EQ(warnings[0].value, 0.6);
}

TEST_F(CoreProbe, WatchdogNeighborRuleFiresOnDipNotOnSmoothDecay) {
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0, 2.0, 3.0, 4.0})};
  // Smooth monotonic decay: every interior point sits exactly on its
  // neighbor mean — must stay silent.
  const std::vector<double> smooth{1.0, 0.8, 0.6, 0.4, 0.2};
  const auto smooth_metric = [&](std::size_t flat, const std::string&) {
    return smooth[flat];
  };
  EXPECT_TRUE(scan_sweep_anomalies(
                  spec, smooth_metric,
                  {{.metric = "prr", .neighbor_tolerance = 0.15}})
                  .empty());

  // One collapsed point in an otherwise flat curve: exactly one warning.
  const std::vector<double> dip{1.0, 1.0, 0.2, 1.0, 1.0};
  const auto dip_metric = [&](std::size_t flat, const std::string&) {
    return dip[flat];
  };
  const auto warnings = scan_sweep_anomalies(
      spec, dip_metric, {{.metric = "prr", .neighbor_tolerance = 0.5}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].flat, 2u);
  EXPECT_EQ(warnings[0].kind, "neighbor");
  EXPECT_DOUBLE_EQ(warnings[0].value, 0.2);
  EXPECT_DOUBLE_EQ(warnings[0].reference, 1.0);
}

TEST_F(CoreProbe, WatchdogNeighborRuleWalksEveryAxis) {
  // 2×3 grid, collapse at (row 1, col 1): the dip must be caught via its
  // column axis too, and edge points must only use existing neighbors.
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("row", {0.0, 1.0}),
               Axis::numeric("col", {0.0, 1.0, 2.0})};
  const std::vector<double> grid{1.0, 1.0, 1.0,
                                 1.0, 0.1, 1.0};
  const auto metric = [&](std::size_t flat, const std::string&) {
    return grid[flat];
  };
  const auto warnings = scan_sweep_anomalies(
      spec, metric, {{.metric = "prr", .neighbor_tolerance = 0.5}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].flat, 4u);
  EXPECT_EQ(warnings[0].kind, "neighbor");
}

TEST_F(CoreProbe, WatchdogDefaultsAreSilent) {
  // A rule with neither a floor nor a neighbor tolerance never fires no
  // matter how wild the data.
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0, 2.0})};
  const std::vector<double> wild{1e6, -1e6, 0.0};
  const auto metric = [&](std::size_t flat, const std::string&) {
    return wild[flat];
  };
  EXPECT_TRUE(scan_sweep_anomalies(spec, metric, {{.metric = "m"}}).empty());
  EXPECT_TRUE(scan_sweep_anomalies(spec, metric, {}).empty());
}

}  // namespace
}  // namespace cbma::core
