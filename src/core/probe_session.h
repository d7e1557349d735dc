// core::ProbeSession — the experiment-facing façade over the signal-probe
// capture in util/probe.h (kept in telemetry's one store and read through
// telemetry::snapshot()), owning the two exports:
//
//  * the probe dump: a compact length-prefixed binary file of every tapped
//    waveform (CBPROBE1 format, below) plus a <path>.json manifest that
//    indexes it — what tools/cbma_inspect.py validates and slices;
//  * the "link_quality" section RunRecorder embeds in BENCH_*.json —
//    per-tag aggregates of the receiver's LinkQualityReport rows.
//
// Dump format (schema_version 1, all integers/doubles little-endian):
//   file  = "CBPROBE1" then records back-to-back
//   record = u64 seq | u32 tap | u32 context | u64 point | u32 iq(0/1)
//            | u32 n_doubles | n_doubles × f64
// Complex records interleave re/im (n_doubles = 2 × samples). The manifest
// repeats every record header with its byte offset, so a reader never has
// to trust the binary's own framing — the cross-check IS the validation.
//
// The switch lives in util/probe.h (probe::enabled() and the dump path);
// the plane table (core/observability.h) decides when these exports run.
// See DESIGN.md §8.
#pragma once

#include <string>

#include "util/json.h"
#include "util/probe.h"
#include "util/telemetry.h"

namespace cbma::core {

/// Version of the probe dump + manifest layout. Bump on breaking changes
/// and describe the migration in DESIGN.md §8.
inline constexpr int kProbeDumpSchemaVersion = 1;

class ProbeSession {
 public:
  /// Programmatic CBMA_PROBE: turn capture on and aim the dump at `path`.
  static void enable(std::string dump_path) {
    probe::set_dump_path(std::move(dump_path));
    probe::set_enabled(true);
  }

  /// Append the "link_quality" key + object to an open JSON object scope:
  /// sample/drop totals plus per-tag aggregates (frames, decoded, mean
  /// SNR/EVM/soft-margin/margin-ratio/power/correlation). The caller
  /// decides *whether* to emit (the plane table only does when probing is
  /// enabled, keeping the disabled document byte-identical).
  static void write_json_section(util::JsonWriter& w,
                                 const telemetry::Snapshot& snap);

  /// Write the snapshot's capture as the binary dump at `path` and its
  /// manifest at `path`.json, each atomically, creating parent
  /// directories. Returns false with a stderr diagnostic on I/O failure.
  static bool write_dump(const std::string& path,
                         const telemetry::Snapshot& snap);
};

}  // namespace cbma::core
