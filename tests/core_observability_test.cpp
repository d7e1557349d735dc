// core::observability_planes(): the plane table RunRecorder walks, and the
// env switches behind it (DESIGN.md §7).
//
// One parameterised test per plane pins the document contract: enabling
// only that plane adds exactly its sections to RunRecorder::json() after a
// real instrumented run, and switching it off again restores the all-off
// document byte for byte. The telemetry and profile rows share the span
// recorder's one switch, so either one adds both their sections. The
// environment tests need each switch's first read, so their bodies run in
// a fresh process.
#include "core/observability.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/recorder.h"
#include "core/system.h"
#include "observability_fixture.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/probe.h"
#include "util/telemetry.h"

namespace cbma::core {
namespace {

/// Enabling the metrics plane arms the span recorder (its counter and span
/// series sample it), so its run carries the recorder's "telemetry" and
/// "profile" sections too and turning it off means turning both off.
void set_metrics(bool on) {
  if (on) {
    metrics::set_enabled(true);
  } else {
    metrics::set_enabled(false);
    telemetry::set_enabled(false);
  }
}

struct PlaneCase {
  const char* name;
  void (*set_enabled)(bool);
  std::vector<std::string> sections;  ///< in document order
};

const PlaneCase kCases[] = {
    {"telemetry", telemetry::set_enabled, {"telemetry", "profile"}},
    {"probe", probe::set_enabled, {"link_quality", "watchdog"}},
    {"metrics", set_metrics, {"telemetry", "timeseries", "events", "profile"}},
    {"profile", telemetry::set_enabled, {"telemetry", "profile"}},
};

RunRecorder make_recorder() {
  SweepSpec spec;
  spec.name = "observability_planes";
  spec.title = "observability planes";
  spec.paper_ref = "tests only";
  spec.trials = 4;
  spec.base_seed = 99;
  RunRecorder recorder(spec, SystemConfig{});
  recorder.record(0, "fer", 0.125);
  recorder.note("identity");
  return recorder;
}

/// Two instrumented transmissions, so every plane has something to export.
void run_pipeline() {
  SystemConfig config;
  config.max_tags = 3;
  auto deployment = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < 3; ++k) {
    deployment.add_tag({0.15 * static_cast<double>(k), 0.6});
  }
  const CbmaSystem system(config, deployment);
  Rng rng(1);
  for (int round = 0; round < 2; ++round) {
    (void)system.transmit(TransmitOptions{}, rng);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::set<std::string> top_level_keys(const std::string& json) {
  std::set<std::string> keys;
  for (const auto& [key, value] : util::json_parse(json).object) {
    keys.insert(key);
  }
  return keys;
}

TEST(ObservabilityPlanes, TableListsThePlanesInSectionOrder) {
  const auto& planes = observability_planes();
  ASSERT_EQ(planes.size(), std::size(kCases));
  for (std::size_t k = 0; k < planes.size(); ++k) {
    EXPECT_STREQ(planes[k].name, kCases[k].name);
  }
}

TEST(ObservabilityPlanes, ZeroInTheEnvironmentTurnsEveryPlaneOff) {
  in_fresh_process([] {
    for (const char* var : {"CBMA_TELEMETRY", "CBMA_TRACE", "CBMA_PROBE",
                            "CBMA_METRICS", "CBMA_PROFILE"}) {
      ::setenv(var, "0", 1);
    }
    EXPECT_FALSE(telemetry::enabled());
    EXPECT_FALSE(telemetry::trace_enabled());
    EXPECT_EQ(telemetry::trace_path(), "");
    EXPECT_FALSE(probe::enabled());
    EXPECT_EQ(probe::dump_path(), "");
    EXPECT_FALSE(metrics::enabled());
    EXPECT_EQ(metrics::export_path(), "");
    EXPECT_EQ(telemetry::profile_path(), "");
    for (const auto& plane : observability_planes()) {
      EXPECT_FALSE(plane.enabled()) << plane.name;
    }
    // With nothing requested, no artifact is owed and none is written.
    EXPECT_TRUE(write_observability_artifacts());
  });
}

TEST(ObservabilityPlanes, MetricsEnvArmsTelemetryWhicheverPlaneIsReadFirst) {
  in_fresh_process([] {
    // No plane has been read in this process yet: the plane table reads
    // the telemetry switch before the metrics one, and both must already
    // agree.
    ::unsetenv("CBMA_TELEMETRY");
    ::setenv("CBMA_METRICS", "1", 1);
    const RunRecorder recorder = make_recorder();
    const std::string first = recorder.json();
    const std::string second = recorder.json();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"telemetry\":"), std::string::npos);
    EXPECT_NE(first.find("\"timeseries\":"), std::string::npos);
  });
}

TEST(ObservabilityPlanes, ProfileEnvAloneArmsTheRecorderAndWritesBothViews) {
  in_fresh_process([] {
    const std::string path = ::testing::TempDir() + "cbma_profile_env.txt";
    std::remove(path.c_str());
    for (const char* var :
         {"CBMA_TELEMETRY", "CBMA_TRACE", "CBMA_PROBE", "CBMA_METRICS"}) {
      ::unsetenv(var);
    }
    ::setenv("CBMA_PROFILE", path.c_str(), 1);
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_FALSE(telemetry::trace_enabled());
    EXPECT_FALSE(metrics::enabled());
    run_pipeline();
    const auto keys = top_level_keys(make_recorder().json());
    EXPECT_EQ(keys.count("telemetry"), 1u);
    EXPECT_EQ(keys.count("profile"), 1u);
    EXPECT_EQ(keys.count("timeseries"), 0u);

    ASSERT_TRUE(write_observability_artifacts());
    const std::string text = read_file(path);
    EXPECT_EQ(text, collapsed(telemetry::snapshot().tree));
    EXPECT_NE(text.find("transmit/total"), std::string::npos);
    std::remove(path.c_str());
  });
}

TEST(ObservabilityPlanes, TraceEnvAloneArmsTheRecorderAndWritesEvents) {
  in_fresh_process([] {
    const std::string path = ::testing::TempDir() + "cbma_trace_env.json";
    std::remove(path.c_str());
    for (const char* var :
         {"CBMA_TELEMETRY", "CBMA_PROBE", "CBMA_METRICS", "CBMA_PROFILE"}) {
      ::unsetenv(var);
    }
    ::setenv("CBMA_TRACE", path.c_str(), 1);
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_TRUE(telemetry::trace_enabled());
    run_pipeline();

    ASSERT_TRUE(write_observability_artifacts());
    const auto doc = util::json_parse(read_file(path));
    const auto& events = doc.at("traceEvents");
    ASSERT_TRUE(events.is_array());
    std::size_t slices = 0;
    for (const auto& e : events.array) slices += e.at("ph").string == "X";
    EXPECT_GT(slices, 0u) << "the trace holds no span events";
    std::remove(path.c_str());
  });
}

class PlaneSections : public ObservabilityTest,
                      public ::testing::WithParamInterface<std::size_t> {};

TEST_P(PlaneSections, EnablingOnlyThisPlaneAddsExactlyItsSections) {
  const PlaneCase& c = kCases[GetParam()];
  const ObservabilityPlane& plane = observability_planes()[GetParam()];
  for (const auto& other : observability_planes()) {
    ASSERT_FALSE(other.enabled()) << other.name << " must default to off";
  }
  const RunRecorder recorder = make_recorder();
  const std::string off = recorder.json();

  c.set_enabled(true);
  run_pipeline();
  ASSERT_TRUE(plane.enabled());
  const std::string on = recorder.json();

  // The enabled document is the all-off document with the plane's
  // sections appended: every byte before the closing brace is unchanged.
  ASSERT_GT(on.size(), off.size());
  EXPECT_EQ(on.substr(0, off.size() - 1), off.substr(0, off.size() - 1));
  auto expected = top_level_keys(off);
  expected.insert(c.sections.begin(), c.sections.end());
  EXPECT_EQ(top_level_keys(on), expected);
  std::size_t previous = off.size() - 1;
  for (const auto& section : c.sections) {
    const auto at = on.find("\"" + section + "\":", previous);
    ASSERT_NE(at, std::string::npos) << section << " out of order";
    previous = at;
  }

  // Switching the plane off again restores the all-off document, however
  // much the plane recorded meanwhile; the one reset drops what it recorded.
  c.set_enabled(false);
  EXPECT_FALSE(plane.enabled());
  EXPECT_EQ(recorder.json(), off);
  telemetry::reset();
  EXPECT_EQ(recorder.json(), off);
}

INSTANTIATE_TEST_SUITE_P(
    ObservabilityPlanes, PlaneSections,
    ::testing::Range<std::size_t>(0, std::size(kCases)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kCases[info.param].name);
    });

}  // namespace
}  // namespace cbma::core
