// The starting state every observability suite shares: each plane switched
// off, each settable export path cleared and the one store emptied, before
// and after every test. ctest runs one test per process, but the suites must
// also pass with every test in one process (CI runs the binary unfiltered),
// so no test may lean on what an earlier one left behind.
//
// Two things the fixture cannot undo: a switch reads its environment
// variable once per process, and a sink, once allocated, stays with the
// registry for the life of the process (recycled, never freed). A test that needs either fresh — a first read of
// the environment, or a registry no thread has touched — runs its body in
// a fresh copy of the test binary with in_fresh_process().
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/metrics.h"
#include "util/probe.h"
#include "util/telemetry.h"

namespace cbma {

/// Every plane off, every settable path cleared, the store reset.
inline void quiesce_observability() {
  telemetry::set_enabled(false);
  telemetry::set_trace_enabled(false);
  telemetry::set_profile_path("");
  probe::set_enabled(false);
  probe::set_dump_path("");
  metrics::set_enabled(false);
  metrics::set_export_path("");
  telemetry::reset();
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { quiesce_observability(); }
  void TearDown() override { quiesce_observability(); }
};

/// Run `body` in a fresh process: a threadsafe-style death test re-executes
/// the test binary for this one test, so the body sees the environment as
/// the parent left it and a registry with no sink. The child exits 0 only
/// when none of the body's assertions failed, so every assertion in it
/// still fails the test.
template <typename Body>
void in_fresh_process(Body&& body) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        body();
        std::exit(::testing::Test::HasFailure() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace cbma
