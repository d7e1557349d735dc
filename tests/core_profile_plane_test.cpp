// The profile plane: the export half of the span recorder's tree view
// (DESIGN.md §13), written by core/observability.
// Pins the contracts the tooling relies on: disabled is a strict identity
// (no "profile" section, no collapsed file, no sinks), the JSON section
// parses and satisfies the per-node identity incl == excl + child_ns, the
// top-exclusive table is sorted and bounded, and the collapsed-stack
// export's line values sum to the tree's total exclusive time.
//
// Every test starts from the shared observability fixture, so flipping
// the recorder switch here cannot leak into other tests.
#include "core/observability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "core/config.h"
#include "core/recorder.h"
#include "observability_fixture.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace cbma::core {
namespace {

using telemetry::ScopedSpan;
using telemetry::Span;

class ProfilePlane : public ObservabilityTest {};

/// A small deterministic tree: net/round → {net/cell_round → rx/process,
/// net/associate} recorded twice, plus one parallel site.
void record_fixture() {
  for (int round = 0; round < 2; ++round) {
    const ScopedSpan net_round(Span::kNetRound);
    {
      const ScopedSpan assoc(Span::kNetAssociate);
    }
    util::parallel_for(
        4,
        [](std::size_t) {
          const ScopedSpan cell(Span::kNetCellRound);
          const ScopedSpan rx(Span::kRxProcess);
        },
        2, "net/round");
  }
}

void tear_down() {
  telemetry::reset();
  telemetry::set_enabled(false);
  telemetry::set_profile_path("");
}

TEST_F(ProfilePlane, DisabledIsAStrictIdentity) {
  ASSERT_FALSE(telemetry::enabled()) << "the recorder must default to off";
  // Spans with the recorder off must leave no trace anywhere.
  {
    const ScopedSpan s(Span::kRxProcess);
  }
  const auto tree = telemetry::snapshot().tree;
  EXPECT_TRUE(tree.roots.empty());
  EXPECT_TRUE(core::top_exclusive(tree, 10).empty());
  EXPECT_TRUE(core::collapsed(tree).empty());
  EXPECT_TRUE(core::write_observability_artifacts());

  // And the BENCH document carries no "profile" section.
  SweepSpec spec;
  spec.name = "profile_plane_test";
  spec.title = "t";
  spec.axes.push_back(Axis::numeric("x", {1.0}));
  RunRecorder recorder(std::move(spec), SystemConfig{});
  const auto doc = util::json_parse(recorder.json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_FALSE(doc.has("profile"));
}

TEST_F(ProfilePlane, JsonSectionParsesAndBalances) {
  telemetry::set_enabled(true);
  telemetry::reset();
  record_fixture();

  const ObservabilityPlane& plane = observability_planes()[3];
  ASSERT_STREQ(plane.name, "profile");
  util::JsonWriter w;
  w.begin_object();
  plane.write_json_section(w, telemetry::snapshot());
  w.end_object();
  tear_down();

  const auto doc = util::json_parse(w.str());
  const auto& prof = doc.at("profile");
  ASSERT_TRUE(prof.is_object());
  EXPECT_GE(prof.at("threads").number, 1.0);
  EXPECT_EQ(prof.at("dropped").number, 0.0);

  // Walk the tree: every node satisfies incl == excl + child_ns exactly.
  std::size_t depth_seen = 0;
  std::function<void(const util::JsonValue&, std::size_t)> walk =
      [&](const util::JsonValue& node, std::size_t depth) {
        depth_seen = std::max(depth_seen, depth);
        EXPECT_FALSE(node.at("span").string.empty());
        EXPECT_DOUBLE_EQ(
            node.at("incl_ns").number,
            node.at("excl_ns").number + node.at("child_ns").number);
        for (const auto& c : node.at("children").array) walk(c, depth + 1);
      };
  const auto& tree = prof.at("tree");
  ASSERT_TRUE(tree.is_array());
  ASSERT_FALSE(tree.array.empty());
  for (const auto& root : tree.array) walk(root, 1);
  // net/round → net/cell_round → rx/process: a real multi-level tree.
  EXPECT_GE(depth_seen, 3u);

  // The parallel site: slot sums must match the aggregate totals.
  const auto& par = prof.at("parallel");
  ASSERT_TRUE(par.is_array());
  ASSERT_EQ(par.array.size(), 1u);
  const auto& site = par.array[0];
  EXPECT_EQ(site.at("site").string, "net/round");
  EXPECT_EQ(site.at("calls").number, 2.0);
  EXPECT_EQ(site.at("items").number, 8.0);
  EXPECT_GE(site.at("imbalance").number, 1.0);
  double slot_busy = 0.0;
  double slot_items = 0.0;
  for (const auto& worker : site.at("workers").array) {
    slot_busy += worker.at("busy_ns").number;
    slot_items += worker.at("items").number;
  }
  EXPECT_DOUBLE_EQ(slot_busy, site.at("busy_ns").number);
  EXPECT_DOUBLE_EQ(slot_items, 8.0);
}

TEST_F(ProfilePlane, TopExclusiveIsSortedAndBounded) {
  telemetry::set_enabled(true);
  telemetry::reset();
  record_fixture();
  const auto tree = telemetry::snapshot().tree;
  const auto top2 = core::top_exclusive(tree, 2);
  const auto all = core::top_exclusive(tree, 100);
  tear_down();

  EXPECT_EQ(top2.size(), 2u);
  ASSERT_GE(all.size(), 4u);  // 4 distinct caller paths in the fixture
  for (std::size_t k = 1; k < all.size(); ++k) {
    EXPECT_GE(all[k - 1].excl_ns, all[k].excl_ns);
  }
  // The bounded prefix is exactly the head of the full ranking.
  EXPECT_EQ(top2[0].path, all[0].path);
  EXPECT_EQ(top2[1].path, all[1].path);
  // Paths are ";"-joined span names rooted at the outermost span.
  bool saw_nested = false;
  for (const auto& row : all) {
    if (row.path == "net/round;net/cell_round;rx/process") {
      saw_nested = true;
      EXPECT_EQ(row.count, 8u);
    }
  }
  EXPECT_TRUE(saw_nested);
}

TEST_F(ProfilePlane, CollapsedStackSumsToTreeExclusiveTime) {
  telemetry::set_enabled(true);
  telemetry::reset();
  record_fixture();
  const auto tree = telemetry::snapshot().tree;
  const std::string text = core::collapsed(tree);
  std::uint64_t tree_excl = 0;
  std::function<void(const telemetry::MergedNode&)> sum =
      [&](const telemetry::MergedNode& n) {
        tree_excl += n.excl_ns();
        for (const auto& c : n.children) sum(c);
      };
  for (const auto& root : tree.roots) sum(root);
  tear_down();

  ASSERT_FALSE(text.empty());
  std::uint64_t collapsed_sum = 0;
  std::istringstream lines(text);
  std::string line;
  std::string prev_path;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string path = line.substr(0, space);
    ASSERT_FALSE(path.empty());
    // Sorted, unique paths; frames separated by ';'.
    EXPECT_GT(path, prev_path);
    prev_path = path;
    collapsed_sum += std::stoull(line.substr(space + 1));
  }
  // Zero-exclusive rows are omitted, so the remaining values account for
  // exactly the tree's exclusive total.
  EXPECT_EQ(collapsed_sum, tree_excl);
}

TEST_F(ProfilePlane, WriteCollapsedHonoursTheConfiguredPath) {
  telemetry::set_enabled(true);
  telemetry::reset();
  record_fixture();
  // No path configured: a successful no-op, no file appears.
  EXPECT_TRUE(core::write_observability_artifacts());

  const auto path = ::testing::TempDir() + "cbma_profile_test.collapsed";
  std::remove(path.c_str());
  telemetry::set_profile_path(path);
  EXPECT_TRUE(core::write_observability_artifacts());
  const std::string expected =
      core::collapsed(telemetry::snapshot().tree);
  tear_down();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, expected);
  EXPECT_NE(text.find("net/round"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ProfilePlane, TreeAndTelemetrySectionsAgreeSpanForSpan) {
  // The recorder on: every span feeds the flat histograms and the tree from
  // one clock reading in one per-thread sink.
  telemetry::set_enabled(true);
  {
    const ScopedSpan warm(Span::kSweepRun);  // the caller's own sink
  }
  telemetry::reset();
  const std::size_t sinks_before = telemetry::sink_count();
  record_fixture();  // 2 rounds, each a parallel_for on 2 fresh workers
  // A worker takes one sink for both views and hands it back on exit, so
  // the second round's workers reuse the first round's sinks.
  EXPECT_LE(telemetry::sink_count(), sinks_before + 2)
      << "a recording thread takes one sink, and exited threads' are reused";

  SweepSpec spec;
  spec.name = "profile_plane_test";
  spec.title = "t";
  spec.axes.push_back(Axis::numeric("x", {1.0}));
  const RunRecorder recorder(std::move(spec), SystemConfig{});
  const auto doc = util::json_parse(recorder.json());
  const auto& flat = doc.at("telemetry");
  const auto& prof = doc.at("profile");

  // Sum every tree node per span. Context nodes carry no count and no
  // time, so the sums cover exactly the spans that ran.
  std::map<std::string, std::pair<double, double>> tree;  // count, incl_ns
  std::function<void(const util::JsonValue&)> sum =
      [&](const util::JsonValue& node) {
        auto& [count, incl_ns] = tree[node.at("span").string];
        count += node.at("count").number;
        incl_ns += node.at("incl_ns").number;
        for (const auto& c : node.at("children").array) sum(c);
      };
  for (const auto& root : prof.at("tree").array) sum(root);

  const auto& spans = flat.at("spans").array;
  ASSERT_EQ(spans.size(), 4u);  // round, associate, cell_round, rx/process
  for (const auto& s : spans) {
    const std::string name = s.at("name").string;
    ASSERT_EQ(tree.count(name), 1u) << name;
    EXPECT_EQ(tree[name].first, s.at("count").number) << name;
    EXPECT_EQ(tree[name].second, s.at("total_ns").number) << name;
  }
  EXPECT_EQ(tree.size(), spans.size());
}

}  // namespace
}  // namespace cbma::core
