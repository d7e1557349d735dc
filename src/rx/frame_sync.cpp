#include "rx/frame_sync.h"

#include <algorithm>

#include "util/expect.h"
#include "util/units.h"

namespace cbma::rx {

FrameSynchronizer::FrameSynchronizer(FrameSyncConfig config) : config_(config) {
  CBMA_REQUIRE(config_.window >= 2, "baseline window too small");
  CBMA_REQUIRE(config_.head_average >= 1, "head average must be positive");
  CBMA_REQUIRE(config_.window <= Stream::kRebaseInterval &&
                   config_.head_average <= Stream::kRebaseInterval,
               "sync windows must fit in one rebase interval");
  CBMA_REQUIRE(config_.threshold_db > 0.0, "threshold must be positive dB");
  CBMA_REQUIRE(config_.min_baseline > 0.0, "baseline floor must be positive");
}

// Both batch entries are one Stream walk that scans once per `window`
// pushes and then releases everything one window behind the cursor (also
// before `begin`), so the ring stays about two windows long, and a hit
// still ends the walk.
std::optional<std::size_t> FrameSynchronizer::detect(std::span<const double> magnitude,
                                                     std::size_t begin) const {
  Stream stream(*this);
  stream.rearm(begin);
  for (std::size_t i = 0; i < magnitude.size();) {
    const std::size_t n = std::min(config_.window, magnitude.size() - i);
    const double* m = magnitude.data() + i;
    stream.push_n(n, [m](std::size_t k) { return m[k]; });
    i += n;
    if (const auto hit = stream.scan()) return hit;
    stream.release(stream.cursor() - config_.window);
  }
  return std::nullopt;
}

std::vector<std::size_t> FrameSynchronizer::detect_all(std::span<const double> magnitude,
                                                       std::size_t refractory) const {
  Stream stream(*this);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < magnitude.size();) {
    const std::size_t n = std::min(config_.window, magnitude.size() - i);
    const double* m = magnitude.data() + i;
    stream.push_n(n, [m](std::size_t k) { return m[k]; });
    i += n;
    while (const auto hit = stream.scan()) {
      out.push_back(static_cast<std::size_t>(*hit));
      stream.rearm(*hit + std::max<std::size_t>(1, refractory));
    }
    stream.release(stream.cursor() - config_.window);
  }
  return out;
}

FrameSynchronizer::Stream::Stream(const FrameSynchronizer& sync) { bind(sync); }

void FrameSynchronizer::Stream::bind(const FrameSynchronizer& sync) {
  sync_ = &sync;
  ratio_ = units::from_db(sync.config().threshold_db);
  reset();
}

void FrameSynchronizer::Stream::reset() {
  prefix_.clear();
  prefix_.push(0.0);  // P(0)
  acc_ = 0.0;
  pushed_ = 0;
  cursor_ = sync_->config().window;
}

void FrameSynchronizer::Stream::rearm(std::uint64_t begin) {
  cursor_ = begin + sync_->config().window;
}

// Inline, so scan() keeps its three window sums free of calls.
inline double FrameSynchronizer::Stream::mean(std::uint64_t lo, std::uint64_t hi) const {
  // b is the last rebase boundary before hi. A span reaching back to it
  // covers the interval that closes there, bridged by the closing total
  // stored at b, and so on for every earlier boundary down to lo (a window
  // of at most one interval, as scan() reads, crosses at most one).
  const std::uint64_t b = (hi - 1) & ~(kRebaseInterval - 1);
  double bridge = b >= lo ? prefix_[b] : 0.0;
  for (std::uint64_t c = b; c >= lo + kRebaseInterval;) {
    c -= kRebaseInterval;
    bridge += prefix_[c];
  }
  return ((prefix_[hi] - prefix_[lo]) + bridge) / static_cast<double>(hi - lo);
}

double FrameSynchronizer::Stream::average(std::uint64_t lo, std::uint64_t hi) const {
  CBMA_REQUIRE(lo >= prefix_.begin() && lo < hi && hi <= pushed_,
               "average span is not retained");
  return mean(lo, hi);
}

std::optional<std::uint64_t> FrameSynchronizer::Stream::scan() {
  const std::size_t w = sync_->config().window;
  const std::size_t h = sync_->config().head_average;
  const double floor = sync_->config().min_baseline;
  // Trailing baseline over [s-w, s); the "current" level is the minimum of
  // the two consecutive head windows [s, s+h) and [s+h, s+2h) — a real
  // frame keeps the power up, an isolated spike cannot.
  while (cursor_ + 2 * h <= pushed_) {
    const double base_avg = std::max(mean(cursor_ - w, cursor_), floor);
    const double head1 = mean(cursor_, cursor_ + h);
    const double head2 = mean(cursor_ + h, cursor_ + 2 * h);
    if (std::min(head1, head2) > ratio_ * base_avg) return cursor_;
    ++cursor_;
  }
  return std::nullopt;
}

}  // namespace cbma::rx
