// Per-tag link-quality estimation (signal-probe subsystem, DESIGN.md §8):
// the receiver already computes everything the paper's evaluation reasons
// about — correlation peaks, soft decision values, window power — and then
// discards it. When probing or the metrics plane is enabled,
// compute_link_quality condenses those into one report per detected tag:
// the numbers that explain *why* a frame lived or died, not just that it
// did.
#pragma once

#include <span>

#include "util/link_quality.h"

namespace cbma::rx {

/// One tag's link quality in one receive window. Valid only when `valid`
/// is set (the tag was detected and decoding produced soft values); only a
/// valid report becomes a probe row or counts toward a LinkQualityRollup.
struct LinkQualityReport : util::LinkQuality {
  bool valid = false;

  bool operator==(const LinkQualityReport&) const = default;
};

/// Cap applied to margin_ratio when the runner-up correlation is ~0.
inline constexpr double kMaxMarginRatio = 1e6;

/// Build a report from one decoded frame's soft values plus the detector's
/// peak/runner-up correlations and the receive window's RMS amplitude.
/// Returns an invalid report when `soft` is empty.
LinkQualityReport compute_link_quality(std::span<const double> soft,
                                       double correlation, double runner_up,
                                       double window_rms);

}  // namespace cbma::rx
