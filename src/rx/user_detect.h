// Correlation-based user detection (§III-B, §V):
// every group code's spread preamble is slid over the head of the detected
// frame in the complex baseband; a normalized-|correlation| peak above the
// threshold declares that user present and yields its per-user timing
// offset *and* carrier-phase estimate. Searching over offsets is what makes
// the detector robust to the tags' asynchronous starts — the paper's answer
// to the "asynchronous signal" challenge — and the complex correlation is
// invariant to each tag's unknown carrier phase.
//
// Detection is successive: the strongest code is found first, its estimated
// preamble contribution is subtracted from a residual copy, and the search
// repeats for the remaining codes inside the group window around the
// anchor. Without this interference cancellation a weak user's aligned
// peak is regularly beaten by the *sum* of the other users' correlation
// sidelobes at a nearby lag once several tags collide.
//
// The anchor round searches every code on the chip-folded window and keeps
// each code's raw correlation per lag. Cancelling a user lowers those by a
// precomputed template cross-correlation times the user's gain (the
// correlation is linear in the window), so a later round re-scores stored
// values instead of searching again (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "phy/tag.h"
#include "pn/code.h"
#include "pn/correlation.h"

namespace cbma::rx {

struct UserDetectConfig {
  double threshold = 0.20;           ///< absolute normalized-correlation threshold
  /// A code is also rejected when its peak is below this fraction of the
  /// strongest peak in the window — shifted-lag sidelobes of a present code
  /// sit well below the aligned peaks of the actual transmitters.
  double relative_threshold = 0.40;
  /// Search window around the coarse start. The spike-proof energy
  /// comparator fires within ~2 head-windows of the true frame edge, so a
  /// tight window suffices — and a tight window is essential: distant lags
  /// expose the detector to other users' correlation sidelobes.
  double search_back_chips = 10.0;
  double search_ahead_chips = 8.0;
  /// Group-window constraint: tags of a group start within a small mutual
  /// offset (the excitation triggers them together; Fig. 11 studies the
  /// residual delays). After the strongest code's peak anchors the frame,
  /// every other code is searched only within ± this window of the anchor,
  /// which keeps weak users from locking onto interference sidelobes at
  /// distant lags. Widen it when deliberately delaying tags by more.
  double group_window_chips = 2.0;
  /// Successive interference cancellation during detection (DESIGN.md
  /// §4.4). Disable only for ablation studies: without it the sum of other
  /// users' sidelobes regularly beats a weak user's aligned peak.
  bool enable_sic = true;
};

struct DetectedUser {
  std::size_t tag_index = 0;
  std::size_t offset_samples = 0;  ///< start of the user's preamble in the window
  double correlation = 0.0;        ///< normalized |correlation| at the peak
  double phase = 0.0;              ///< carrier-phase estimate (radians)
  /// Best peak among the *other* still-unassigned codes in the same
  /// detection round — the runner-up this code had to beat. 0 when no other
  /// code was in contention. correlation − runner_up is the detection
  /// margin the flight recorder and link-quality reports consume.
  double runner_up = 0.0;
};

/// The detector's view of one frame: the split-re/im window and the frame
/// synchronizer's coarse trigger the anchor search centres on. A view only —
/// the caller keeps the arrays alive through the detect() call.
struct DetectionInput {
  std::span<const double> re;
  std::span<const double> im;
  std::size_t coarse_start = 0;
};

class UserDetector {
 public:
  /// Reusable detection buffers, sized once per reach and reused across
  /// packets, so in steady state detect() allocates only its result.
  struct Scratch {
    /// The reach, minus every cancelled user's preamble.
    std::vector<double> residual_re;
    std::vector<double> residual_im;
    /// pn::fold_chip_sums of the reach as received: the anchor round's
    /// search and the group window's remaining lags read it.
    std::vector<double> fold_re;
    std::vector<double> fold_im;
    /// Every code's raw correlation per lag, code-major, over the anchor
    /// lags widened by the group span on both sides; each cancellation
    /// updates the untaken codes' entries in the group window.
    std::vector<double> dot_re;
    std::vector<double> dot_im;
    pn::WindowStats stats;  ///< the current round's per-lag window terms
    std::vector<bool> taken;
  };

  /// `codes`: the group's PN codes (receiver knows all of them), all of one
  /// length; `preamble_bits` and `samples_per_chip` must match the tags'
  /// config.
  UserDetector(UserDetectConfig config, std::span<const pn::PnCode> codes,
               std::size_t preamble_bits, std::size_t samples_per_chip);

  const UserDetectConfig& config() const { return config_; }
  std::size_t group_size() const { return templates_.size(); }

  /// Detect users around `input.coarse_start` (the frame synchronizer's
  /// trigger). Returns every code whose correlation peak clears both
  /// thresholds, offsets relative to the whole window. Copies and folds
  /// only the reach around the trigger that the search windows and the
  /// template can touch (DESIGN.md §10); the result equals detect() on
  /// any window that shares the reach, bit for bit. `scratch` is
  /// caller-owned and reused across packets.
  std::vector<DetectedUser> detect(const DetectionInput& input,
                                   Scratch& scratch) const;

 private:
  /// Subtract `user`'s preamble from the residual and update every untaken
  /// code's stored dots over the group window [g0, g1) to match; the store
  /// starts at lag s0 and holds `width` lags per code.
  void cancel(const DetectedUser& user, std::size_t g0, std::size_t g1,
              std::size_t s0, std::size_t width, Scratch& scratch) const;

  UserDetectConfig config_;
  std::size_t samples_per_chip_;
  std::vector<std::vector<double>> templates_;  ///< per-bit mean-removed preambles
  /// Chip-level (not upsampled) counterparts of templates_ — the sliding
  /// search runs on these against per-chip folded window sums, cutting each
  /// lag's dot product by samples_per_chip×.
  std::vector<std::vector<double>> chip_templates_;
  std::vector<double> tmpl_norm2_;              ///< template energies (gain fits)
  std::vector<pn::TemplateSums> tmpl_sums_;     ///< score terms per template
  /// Every detection and every group-round lag lies within ± group span of
  /// the anchor, so a cancellation moves a dot by a template
  /// cross-correlation at most twice that far from zero lag.
  std::size_t cross_lag_ = 0;
  /// pn::upsampled_cross_correlation of templates k and b at lags
  /// [−cross_lag_, cross_lag_], row k·group_size() + b (the diagonal unused).
  std::vector<double> cross_;
};

}  // namespace cbma::rx
