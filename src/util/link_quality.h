// The one link-quality record (DESIGN.md §8): the six numbers that explain
// why a tag's frame lived or died. rx::LinkQualityReport and
// probe::LinkQualitySample both carry it, and LinkQualityRollup is its sum
// over frames — the one mean the metrics plane's per-cell `link.*` series
// and the probe's `link_quality` section both report. It lives in util
// because the probe capture does, and util does not depend on rx.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

namespace cbma::util {

/// Signal-domain health of one tag's frame in one receive window; every
/// field is derived deterministically from the window (no RNG, no clock).
struct LinkQuality {
  /// Post-despreading SNR estimate from the soft decision statistics:
  /// 10·log10(mean²/var) over |soft| — the M2M4-style moment estimator.
  double snr_db = 0.0;
  /// Error-vector magnitude over the decoded bits: RMS deviation of
  /// |soft|/mean(|soft|) from the unit decision point (0 = noiseless).
  double evm = 0.0;
  /// Weakest bit relative to the average: min|soft| / mean|soft| in [0,1].
  /// A healthy frame sits near 1; a value near 0 names the bit that almost
  /// flipped.
  double soft_margin = 0.0;
  /// Detection-peak separation: peak correlation / runner-up code's peak
  /// (capped; large when no other code came close).
  double margin_ratio = 0.0;
  /// Mean despread amplitude normalized by the window RMS — the tag's
  /// backscatter strength relative to everything else on the air.
  double power_norm = 0.0;
  /// The detection correlation peak the ratios are anchored on.
  double correlation = 0.0;

  bool operator==(const LinkQuality&) const = default;
};

/// The fields by export name, in declaration order: what every writer and
/// the rollup iterate, so no field list is spelled out twice.
inline constexpr std::array<std::pair<const char*, double LinkQuality::*>, 6>
    kLinkQualityFields{{{"snr_db", &LinkQuality::snr_db},
                        {"evm", &LinkQuality::evm},
                        {"soft_margin", &LinkQuality::soft_margin},
                        {"margin_ratio", &LinkQuality::margin_ratio},
                        {"power_norm", &LinkQuality::power_norm},
                        {"correlation", &LinkQuality::correlation}}};

/// Running sum of LinkQuality records. Plain sums, so merge() is exact and
/// deterministic for a fixed add order; mean() is all zeros over no frames.
struct LinkQualityRollup {
  std::size_t frames = 0;
  LinkQuality sum;

  void add(const LinkQuality& q) {
    ++frames;
    for (const auto& [name, field] : kLinkQualityFields) sum.*field += q.*field;
  }
  void merge(const LinkQualityRollup& other) {
    frames += other.frames;
    for (const auto& [name, field] : kLinkQualityFields) {
      sum.*field += other.sum.*field;
    }
  }
  LinkQuality mean() const {
    LinkQuality m;
    if (frames == 0) return m;
    for (const auto& [name, field] : kLinkQualityFields) {
      m.*field = sum.*field / static_cast<double>(frames);
    }
    return m;
  }
};

}  // namespace cbma::util
