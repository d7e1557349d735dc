// Signal-probe capture: bounded per-stage waveform taps, recorded by the
// pipeline and exported as a binary dump + JSON manifest
// (core/observability.h owns the file format). The per-tag link-quality
// rows the manifest lists are the frame log's rows with a valid report
// (telemetry::FrameRow, util/telemetry.h), which the probe also arms. The
// logic-analyzer counterpart of util/telemetry.h — telemetry answers *how
// long* each stage took, the probe answers *what the signal looked like*.
//
// The contract mirrors telemetry exactly: **disabled probing is a strict
// identity**. When enabled() is false (the default), every record_* call
// returns before touching anything, no storage is allocated, no clock is
// read, and no RNG is ever drawn (the probe never draws randomness at
// all) — every bench table and BENCH_*.json stays byte-identical. Enable
// with CBMA_PROBE=<dump-path>, or set_dump_path() and set_enabled(true).
//
// The capture lives in telemetry's one registry (util/telemetry.cpp, which
// implements the record_* entry points): every record is stored under
// its mutex, not into a lock-free per-thread sink, because a probe run is a
// debugging instrument recording kilobyte-scale waveforms at bounded
// depth, not a hot-path counter, and a single ordered store is what the
// dump reader wants. telemetry::snapshot().probe copies it and
// telemetry::reset() clears it. The bounds make a runaway sweep degrade to
// the N records per tap with the smallest (sweep point, parallel_for item,
// capture order) instead of exhausting memory, the same records at any
// worker count. See DESIGN.md §8 for the full signal-probe contract.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cbma::probe {

/// Every tapped stage of the pipeline, in signal-flow order. Names
/// (tap_name) are the wire format the manifest and cbma_inspect.py speak.
enum class Tap : std::uint8_t {
  kExcitationEnvelope,   ///< post-impairment excitation envelope (rfsim::Channel)
  kCompositeIq,          ///< fully composed antenna window after distort_rx
  kSyncEnergy,           ///< magnitude envelope frame sync runs on (rx::Receiver)
  kCorrelationProfile,   ///< per-code |correlation| vs lag (rx::UserDetector)
  kSoftBits,             ///< per-bit coherent soft values (rx::Decoder output)
  kCount
};
inline constexpr std::size_t kTapCount = static_cast<std::size_t>(Tap::kCount);
const char* tap_name(Tap t);

/// Capture bounds: per-tap record cap and per-record sample cap (longer
/// traces are truncated, never dropped). Kilobyte-scale by construction.
inline constexpr std::size_t kMaxRecordsPerTap = 256;
inline constexpr std::size_t kMaxSamplesPerRecord = 1u << 16;

/// One captured trace: real data holds `data.size()` samples, complex data
/// interleaves re/im pairs (`data.size() / 2` samples).
struct TapRecord {
  Tap tap = Tap::kExcitationEnvelope;
  std::uint64_t seq = 0;      ///< export order, shared with the frame log
  std::uint64_t point = 0;    ///< sweep point (ScopedPoint), 0 outside sweeps
  std::uint64_t item = 0;     ///< innermost parallel_for item; sort key only
  std::uint32_t context = 0;  ///< tag/code index; 0 for window-level taps
  bool complex_iq = false;
  std::vector<double> data;
};

// --- master switch ---------------------------------------------------------

/// The CBMA_PROBE switch (util/env_switch.h): the value is where
/// the plane table (core/observability.h) writes the binary dump.
bool enabled();
void set_enabled(bool on);
std::string dump_path();
void set_dump_path(std::string path);

// --- hot-path recording (all strict no-ops when disabled) ------------------

void record_tap(Tap t, std::uint32_t context, std::span<const double> samples);
void record_tap_iq(Tap t, std::uint32_t context,
                   std::span<const std::complex<double>> iq);

/// Labels every tap record and frame row made on this thread while alive
/// with a sweep-point index (SweepRunner wraps each grid-point body in
/// one). Zero work when neither the probe nor the span recorder is on at
/// construction.
class ScopedPoint {
 public:
  explicit ScopedPoint(std::uint64_t point);
  ~ScopedPoint();
  ScopedPoint(const ScopedPoint&) = delete;
  ScopedPoint& operator=(const ScopedPoint&) = delete;

 private:
  bool active_;
  std::uint64_t previous_ = 0;
};

// --- what telemetry::snapshot() copies ------------------------------------

struct Capture {
  std::vector<TapRecord> taps;   ///< seq order
  std::size_t dropped_taps = 0;  ///< records lost to kMaxRecordsPerTap
};

}  // namespace cbma::probe
