// util/telemetry's tree view: the hierarchical span-attribution tree
// (DESIGN.md §13). Covers the contracts the export tooling leans on: the
// off path allocates nothing, caller paths build a tree with the exact
// per-node identity incl == excl + child_ns, the fixed node pool drops
// (never allocates) on exhaustion, parallel_for workers merge under the
// launching span via context replay and publish their site's report, a
// throw leaves the caller's context as it was, and tree shape + item counts
// are deterministic across worker counts even though the times are
// wall-clock.
// Every test starts from the shared observability fixture.
#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "observability_fixture.h"
#include "util/parallel.h"

namespace cbma::telemetry {
namespace {

class Profiler : public ObservabilityTest {};

/// Find a direct child by span, nullptr when absent.
const MergedNode* child(const std::vector<MergedNode>& nodes, Span s) {
  for (const auto& n : nodes) {
    if (n.span == s) return &n;
  }
  return nullptr;
}

void check_identity(const MergedNode& node) {
  // excl = incl − child_ns must never underflow: child spans nest inside
  // the parent's clock on the same thread.
  EXPECT_GE(node.incl_ns, node.child_ns) << span_name(node.span);
  for (const auto& c : node.children) check_identity(c);
}

TEST_F(Profiler, OffPathRegistersNoSinks) {
  const std::size_t before = sink_count();
  // A fresh thread is the clean probe: its thread_local sink pointer is
  // null, and with the recorder off ScopedSpan must never allocate one.
  std::thread([] {
    const ScopedSpan outer(Span::kRxProcess);
    const ScopedSpan inner(Span::kRxDetect);
  }).join();
  EXPECT_EQ(sink_count(), before);
  EXPECT_TRUE(snapshot().tree.roots.empty());
}

TEST_F(Profiler, BuildsCallerPathTree) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    const ScopedSpan process(Span::kRxProcess);
    {
      const ScopedSpan detect(Span::kRxDetect);
    }
    const ScopedSpan decode(Span::kRxDecode);
  }
  // rx/detect alone is a *different caller path* than rx/process→rx/detect.
  {
    const ScopedSpan detect(Span::kRxDetect);
  }

  const TreeSnapshot snap = snapshot().tree;
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.threads, 1u);
  const MergedNode* process = child(snap.roots, Span::kRxProcess);
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->count, 3u);
  const MergedNode* nested_detect = child(process->children, Span::kRxDetect);
  const MergedNode* nested_decode = child(process->children, Span::kRxDecode);
  ASSERT_NE(nested_detect, nullptr);
  ASSERT_NE(nested_decode, nullptr);
  EXPECT_EQ(nested_detect->count, 3u);
  EXPECT_EQ(nested_decode->count, 3u);
  const MergedNode* root_detect = child(snap.roots, Span::kRxDetect);
  ASSERT_NE(root_detect, nullptr);
  EXPECT_EQ(root_detect->count, 1u);
  for (const auto& root : snap.roots) check_identity(root);
}

TEST_F(Profiler, ChildTimeFoldsIntoParentExclusive) {
  set_enabled(true);
  {
    const ScopedSpan outer(Span::kRxProcess);
    const ScopedSpan inner(Span::kRxDetect);
  }
  const TreeSnapshot snap = snapshot().tree;
  const MergedNode* outer = child(snap.roots, Span::kRxProcess);
  ASSERT_NE(outer, nullptr);
  const MergedNode* inner = child(outer->children, Span::kRxDetect);
  ASSERT_NE(inner, nullptr);
  // The parent's child_ns is exactly the same-thread child's inclusive
  // time, so excl + child accounts for all of incl.
  EXPECT_EQ(outer->child_ns, inner->incl_ns);
  EXPECT_EQ(outer->incl_ns, outer->excl_ns() + outer->child_ns);
}

TEST_F(Profiler, SameSpanReentryAccumulatesOneNode) {
  set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    const ScopedSpan s(Span::kRxFrameSync);
  }
  const TreeSnapshot snap = snapshot().tree;
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].count, 5u);
  EXPECT_TRUE(snap.roots[0].children.empty());
}

TEST_F(Profiler, MidSpanSwitchFlipKeepsTheTreeBalanced) {
  // A span samples the switch once, at entry: one that began off pops
  // nothing after the switch came on, and one that began on still records
  // and pops after it went off.
  set_enabled(true);
  {
    const ScopedSpan outer(Span::kRxProcess);
    set_enabled(false);
    {
      const ScopedSpan skipped(Span::kRxDetect);
      set_enabled(true);
    }
    {
      const ScopedSpan inner(Span::kRxDecode);  // still under outer
    }
    set_enabled(false);
  }
  set_enabled(true);
  {
    const ScopedSpan after(Span::kRxFrameSync);  // a root again
  }
  const TreeSnapshot snap = snapshot().tree;
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.roots.size(), 2u);
  const MergedNode* outer = child(snap.roots, Span::kRxProcess);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].span, Span::kRxDecode);
  EXPECT_EQ(outer->child_ns, outer->children[0].incl_ns);
  const MergedNode* after = child(snap.roots, Span::kRxFrameSync);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, 1u);
  EXPECT_TRUE(WorkerContext::capture().path.empty());
}

TEST_F(Profiler, PoolExhaustionDropsNotCrashes) {
  set_enabled(true);
  // Alternating spans at ever-deeper nesting create one node per level;
  // past kNodeCapacity every deeper span must be counted as dropped and
  // the tree must stay at capacity.
  std::function<void(std::size_t)> descend = [&](std::size_t depth) {
    if (depth == 2 * kNodeCapacity) return;
    const ScopedSpan s(depth % 2 == 0 ? Span::kRxProcess : Span::kRxDetect);
    descend(depth + 1);
  };
  descend(0);
  const TreeSnapshot snap = snapshot().tree;
  EXPECT_EQ(snap.dropped, kNodeCapacity);
  std::size_t nodes = 0;
  std::function<void(const MergedNode&)> count = [&](const MergedNode& n) {
    ++nodes;
    for (const auto& c : n.children) count(c);
  };
  for (const auto& root : snap.roots) count(root);
  EXPECT_EQ(nodes, kNodeCapacity);
  // reset() reclaims the pool: recording works again afterwards.
  reset();
  {
    const ScopedSpan s(Span::kRxDecode);
  }
  EXPECT_NE(child(snapshot().tree.roots, Span::kRxDecode), nullptr);
  EXPECT_EQ(snapshot().tree.dropped, 0u);
}

TEST_F(Profiler, WorkerSubtreesMergeUnderLaunchingSpan) {
  set_enabled(true);
  {
    const ScopedSpan round(Span::kNetRound);
    util::parallel_for(
        8,
        [](std::size_t) {
          const ScopedSpan cell(Span::kNetCellRound);
          const ScopedSpan rx(Span::kRxProcess);
        },
        4, "test/cells");
  }
  const Snapshot full = snapshot();
  ASSERT_EQ(full.parallel.size(), 1u);
  EXPECT_EQ(full.parallel[0].site, "test/cells");
  EXPECT_EQ(full.parallel[0].items, 8u);
  const TreeSnapshot& snap = full.tree;
  // Workers replayed the caller's [net/round] path as context, so the
  // merged tree has one root and the worker spans hang beneath it.
  const MergedNode* round = child(snap.roots, Span::kNetRound);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, 1u);
  const MergedNode* cell = child(round->children, Span::kNetCellRound);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 8u);
  const MergedNode* rx = child(cell->children, Span::kRxProcess);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->count, 8u);
  // Context replicas contribute no time, so the root's exclusive time is
  // still exact (no negative-underflow from cross-thread folding).
  for (const auto& root : snap.roots) check_identity(root);
}

TEST_F(Profiler, ExitedWorkersHandTheirSinksToTheNextOnes) {
  // Every parallel_for starts fresh worker threads. Each hands its sink
  // back when it exits, so the sinks stay bounded by the peak number of
  // concurrently recording threads, and what the exited threads recorded
  // still merges.
  constexpr std::size_t kCalls = 1000;
  constexpr std::size_t kWorkers = 4;
  set_enabled(true);
  std::size_t grown = 0;
  {
    const ScopedSpan round(Span::kNetRound);  // the caller's own sink
    const std::size_t before = sink_count();
    for (std::size_t call = 0; call < kCalls; ++call) {
      util::parallel_for(
          kWorkers,
          [](std::size_t) { const ScopedSpan cell(Span::kNetCellRound); },
          kWorkers);
    }
    grown = sink_count() - before;
  }
  const Snapshot snap = snapshot();
  set_enabled(false);

  EXPECT_LE(grown, kWorkers);
  const std::uint64_t cells = kCalls * kWorkers;
  std::uint64_t flat_cells = 0;
  for (const auto& s : snap.spans) {
    if (s.id == Span::kNetCellRound) flat_cells = s.count;
  }
  EXPECT_EQ(flat_cells, cells);
  const MergedNode* round = child(snap.tree.roots, Span::kNetRound);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, 1u);
  const MergedNode* cell = child(round->children, Span::kNetCellRound);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, cells);
  EXPECT_EQ(snap.tree.dropped, 0u);
}

TEST_F(Profiler, TreeShapeAndCountsStableAcrossWorkerCounts) {
  // Utilization varies run to run; the attribution *structure* must not.
  struct Shape {
    std::vector<std::string> paths;  // "span count" per node, DFS order
  };
  set_enabled(true);
  const auto run = [](std::size_t workers) {
    reset();
    {
      const ScopedSpan round(Span::kNetRound);
      util::parallel_for(
          12,
          [](std::size_t) {
            const ScopedSpan cell(Span::kNetCellRound);
          },
          workers, "test/shape");
    }
    const auto sites = snapshot().parallel;
    EXPECT_EQ(sites.size(), 1u);
    if (!sites.empty()) {
      EXPECT_EQ(sites[0].items, 12u);
      EXPECT_EQ(sites[0].worker_items.size(), workers);
      std::uint64_t items = 0;
      for (const std::uint64_t n : sites[0].worker_items) items += n;
      EXPECT_EQ(items, 12u);  // every index executed exactly once
    }
    Shape shape;
    std::function<void(const MergedNode&, const std::string&)> dfs =
        [&](const MergedNode& n, const std::string& prefix) {
          const std::string path =
              prefix + span_name(n.span) + " x" + std::to_string(n.count);
          shape.paths.push_back(path);
          for (const auto& c : n.children) dfs(c, path + ";");
        };
    for (const auto& root : snapshot().tree.roots) dfs(root, "");
    return shape;
  };
  const Shape serial = run(1);
  const Shape two = run(2);
  const Shape eight = run(8);
  EXPECT_EQ(serial.paths, two.paths);
  EXPECT_EQ(serial.paths, eight.paths);
}

TEST_F(Profiler, RecordParallelAggregatesPerSite) {
  set_enabled(true);
  util::parallel_for(6, [](std::size_t) {}, 3, "test/site");
  util::parallel_for(6, [](std::size_t) {}, 3, "test/site");

  const auto sites = snapshot().parallel;
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].site, "test/site");
  EXPECT_EQ(sites[0].calls, 2u);
  EXPECT_EQ(sites[0].items, 12u);
  EXPECT_EQ(sites[0].worker_busy_ns.size(), 3u);
  std::uint64_t slot_busy = 0;
  for (const std::uint64_t b : sites[0].worker_busy_ns) slot_busy += b;
  EXPECT_EQ(slot_busy, sites[0].busy_ns);
  EXPECT_GE(sites[0].worst_imbalance, 1.0);
}

TEST_F(Profiler, SitedCallPublishesNothingWhenOff) {
  // Strict identity: with the recorder off a sited loop measures nothing,
  // publishes no report and takes no sink, inline or on a pool.
  const std::size_t before = sink_count();
  util::parallel_for(16, [](std::size_t) {}, 4, "test/off");
  util::parallel_for(16, [](std::size_t) {}, 1, "test/off");
  EXPECT_TRUE(snapshot().parallel.empty());
  EXPECT_EQ(sink_count(), before);
}

TEST_F(Profiler, NestedThrowLeavesTheCallersContextAsItWas) {
  // A throw deep inside nested loops unwinds every adopted context: the
  // calling thread keeps its span path, its sweep point and its item, on
  // the pool path and the inline path alike.
  set_enabled(true);
  probe::set_enabled(true);
  const ScopedSpan round(Span::kNetRound);
  const probe::ScopedPoint point(5);
  const WorkerContext before = WorkerContext::capture();
  ASSERT_EQ(before.path, std::vector<Span>{Span::kNetRound});
  ASSERT_EQ(before.point, 5u);
  for (const std::size_t workers : {1u, 4u}) {
    EXPECT_THROW(util::parallel_for(
                     4,
                     [&](std::size_t) {
                       const ScopedSpan cell(Span::kNetCellRound);
                       util::parallel_for(
                           3,
                           [](std::size_t j) {
                             const ScopedSpan rx(Span::kRxProcess);
                             if (j == 1) throw std::runtime_error("nested");
                           },
                           workers, "test/inner");
                     },
                     workers, "test/outer"),
                 std::runtime_error);
    const WorkerContext after = WorkerContext::capture();
    EXPECT_EQ(after.path, before.path) << workers << " workers";
    EXPECT_EQ(after.point, before.point) << workers << " workers";
    EXPECT_EQ(after.item, before.item) << workers << " workers";
  }
  EXPECT_TRUE(snapshot().parallel.empty()) << "a failed loop publishes";
}

TEST_F(Profiler, ResetClearsTreeAndSites) {
  set_enabled(true);
  {
    const ScopedSpan s(Span::kRxProcess);
  }
  util::parallel_for(4, [](std::size_t) {}, 2, "test/reset");
  ASSERT_FALSE(snapshot().tree.roots.empty());
  ASSERT_FALSE(snapshot().parallel.empty());
  reset();
  EXPECT_TRUE(snapshot().tree.roots.empty());
  EXPECT_TRUE(snapshot().parallel.empty());
  EXPECT_EQ(snapshot().tree.dropped, 0u);
}

}  // namespace
}  // namespace cbma::telemetry
