// RunRecorder — the structured-results half of the experiment API. A bench
// builds one from its SweepSpec and SystemConfig; the sweep body records
// named metrics into per-point slots (thread-safe: each point owns its
// slot); the driver prints the same human-readable tables as before via
// print_table(); and finish() writes the schema-versioned BENCH_<name>.json
// document that CI validates and archives. See DESIGN.md §5 for the schema.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/sweep.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace cbma::core {

/// Version of the BENCH_*.json document layout. Bump on breaking changes
/// and describe the migration in DESIGN.md §5.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// A recorded paper-shape verdict ("error grows with distance": HOLDS).
struct ShapeCheck {
  std::string name;
  bool holds = false;
  std::string detail;
};

class RunRecorder {
 public:
  RunRecorder(SweepSpec spec, const SystemConfig& config);

  const SweepSpec& spec() const { return spec_; }

  /// Print the standard bench banner (title, paper ref, config, trials,
  /// seed) — the uniform header every experiment run starts with.
  void print_header() const;

  /// Record a named metric for grid point `flat`. Thread-safe across
  /// distinct points; metrics for one point keep insertion order.
  void record(std::size_t flat, const std::string& metric, double value);

  /// Read a recorded metric back (throws if absent) — lets the table
  /// builder consume the same values the JSON document carries.
  double metric(std::size_t flat, const std::string& name) const;

  /// Print a rendered table to stdout (exactly as the pre-recorder benches
  /// did) and mirror its cells into the JSON document.
  void print_table(const Table& table);

  /// Record a paper-shape verdict; returns `holds` so the caller can reuse
  /// the verdict in its printed summary line.
  bool check(const std::string& name, bool holds, std::string detail = "");

  /// Attach a free-form note to the JSON document (not printed).
  void note(std::string text);

  /// Scan the recorded metrics against the watchdog rules
  /// (scan_sweep_anomalies over this recorder's metric store), print every
  /// fired warning to stderr, keep them for the JSON document's "watchdog"
  /// section, and return how many fired. Call after the sweep body has
  /// recorded all rule-referenced metrics.
  std::size_t run_watchdog(const std::vector<WatchdogRule>& rules);

  /// The complete schema-versioned document, its observability sections
  /// read from `snap`. Deterministic: identical recorded results serialize
  /// to identical bytes (no timestamps, no thread counts), which the
  /// cross-thread golden test relies on.
  std::string json(
      const telemetry::Snapshot& snap = telemetry::snapshot()) const;

  /// Write BENCH_<spec.name>.json into $CBMA_BENCH_DIR (or the working
  /// directory), then the requested observability files, all from one
  /// snapshot; return the exit code for main(): 0 on success.
  int finish() const;

 private:
  SweepSpec spec_;
  std::string config_summary_;
  std::uint64_t config_fingerprint_;
  /// Per-point named metrics, insertion-ordered.
  std::vector<std::vector<std::pair<std::string, double>>> points_;
  struct CapturedTable {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<CapturedTable> tables_;
  std::vector<ShapeCheck> checks_;
  std::vector<std::string> notes_;
  std::vector<WatchdogWarning> warnings_;
};

}  // namespace cbma::core
