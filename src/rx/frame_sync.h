// Frame synchronization by energy detection (§III-B):
// a moving-average filter of window W_n tracks the baseline power level;
// a new frame is declared when the instantaneous power level (short head
// average) exceeds the filtered baseline by the decision threshold
// P_th = 3 dB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/ring_buffer.h"

namespace cbma::rx {

struct FrameSyncConfig {
  std::size_t window = 128;       ///< W_n, baseline moving-average window (samples)
  double threshold_db = 3.0;      ///< P_th above the filtered level
  /// Samples averaged for the "current" level. Two consecutive windows of
  /// this size must BOTH clear the threshold, so an isolated noise spike
  /// (which can only dominate one of them) cannot fire the comparator.
  std::size_t head_average = 16;
  double min_baseline = 1e-30;    ///< numeric floor for silent channels
};

class FrameSynchronizer {
 public:
  explicit FrameSynchronizer(FrameSyncConfig config);

  const FrameSyncConfig& config() const { return config_; }

  /// First sample index at or after `begin` where the energy comparator
  /// fires, or nullopt. `magnitude` is P(t) = √(I²+Q²).
  std::optional<std::size_t> detect(std::span<const double> magnitude,
                                    std::size_t begin = 0) const;

  /// All trigger points, suppressing re-triggers within `refractory`
  /// samples of a previous detection (one detection per frame), in one walk.
  std::vector<std::size_t> detect_all(std::span<const double> magnitude,
                                      std::size_t refractory) const;

  /// The one comparator (DESIGN.md §10): push() extends the power prefix
  /// sums and scan() advances the comparator over every position whose
  /// baseline and both head windows are complete, parking the cursor on a
  /// trigger until rearm() moves it. Decisions are keyed to absolute
  /// positions and sample content only, so chunking never changes them.
  class Stream {
   public:
    /// The prefix restarts every kRebaseInterval pushes (error bound: two
    /// intervals, not the history); no transmit window is this long.
    static constexpr std::uint64_t kRebaseInterval = std::uint64_t{1} << 16;

    explicit Stream(const FrameSynchronizer& sync);

    /// Follow `sync` from now on (its window, head and threshold) and
    /// reset(); the prefix ring keeps its capacity.
    void bind(const FrameSynchronizer& sync);

    /// Consume one envelope sample P(t) = √(I²+Q²). Rebases are keyed to
    /// the push count, never to chunking: the closing total stays stored at
    /// the boundary and the next interval counts from zero.
    void push(double magnitude) {
      push_n(1, [magnitude](std::size_t) { return magnitude; });
    }
    /// Consume magnitude_at(0), …, magnitude_at(n − 1) in order (push() is
    /// n = 1); the running prefix and count stay in registers for the run.
    template <typename F>
    void push_n(std::size_t n, F&& magnitude_at) {
      double acc = acc_;
      std::uint64_t pushed = pushed_;
      prefix_.push_n(n, [&](std::size_t i) {
        const double m = magnitude_at(i);
        acc += m * m;
        const double prefix = acc;
        if (++pushed % kRebaseInterval == 0) acc = 0.0;
        return prefix;
      });
      acc_ = acc;
      pushed_ = pushed;
    }
    /// Advance the comparator; returns the trigger position if it fired
    /// before running out of lookahead (2×head_average samples past the
    /// cursor). The cursor stays on the trigger until rearm(). It reads
    /// from cursor() − window on and releases nothing; the owner does.
    std::optional<std::uint64_t> scan();
    /// Restart the walk at `begin` (absolute stream position): the next
    /// trigger is the first s >= begin + window where the comparator fires.
    void rearm(std::uint64_t begin);
    /// Mean power over [lo, hi), any span the prefix still holds (lo at or
    /// above the last release() floor, hi <= position(); else it throws):
    /// within (n + k + 4)·u·E/n of exact, n = hi − lo, k the rebase
    /// boundaries in [lo, hi), u = 2⁻⁵³, E the energy from the start of lo's
    /// interval to hi.
    double average(std::uint64_t lo, std::uint64_t hi) const;
    /// Drop the prefix before stream position `floor` (monotonic); scan()
    /// needs cursor() − window retained, and average() its own lo.
    void release(std::uint64_t floor) { prefix_.release(floor); }
    /// Samples pushed so far (absolute stream position of the next sample).
    std::uint64_t position() const { return pushed_; }
    /// The comparator cursor — scan() never reads before cursor − window
    /// again, which bounds what a walk must retain.
    std::uint64_t cursor() const { return cursor_; }
    /// Back to position 0 with an empty prefix (capacity is kept).
    void reset();
    std::size_t bytes() const { return prefix_.bytes(); }

   private:
    double mean(std::uint64_t lo, std::uint64_t hi) const;  ///< unchecked average()

    const FrameSynchronizer* sync_ = nullptr;
    util::RingBuffer<double> prefix_;  ///< Σ m² since the last rebase
    double acc_ = 0.0;                 ///< running prefix at position()
    double ratio_ = 0.0;               ///< linear threshold, from_db(P_th)
    std::uint64_t pushed_ = 0;
    std::uint64_t cursor_ = 0;
  };

 private:
  FrameSyncConfig config_;
};

}  // namespace cbma::rx
