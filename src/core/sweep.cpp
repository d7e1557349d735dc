#include "core/sweep.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/expect.h"
#include "util/probe.h"
#include "util/telemetry.h"

namespace cbma::core {

Axis Axis::numeric(std::string name, std::vector<double> values,
                   std::string unit) {
  Axis axis;
  axis.name = std::move(name);
  axis.values = std::move(values);
  axis.unit = std::move(unit);
  CBMA_REQUIRE(!axis.values.empty(), "axis '" + axis.name + "' has no values");
  return axis;
}

Axis Axis::categorical(std::string name, std::vector<std::string> labels) {
  Axis axis;
  axis.name = std::move(name);
  axis.labels = std::move(labels);
  CBMA_REQUIRE(!axis.labels.empty(), "axis '" + axis.name + "' has no labels");
  return axis;
}

std::size_t SweepSpec::point_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes) {
    const std::size_t s = axis.size();
    // Unchecked n *= s wraps silently for pathological grids and the
    // resulting "small" sweep would run (and record into) the wrong points.
    CBMA_REQUIRE(s == 0 || n <= std::numeric_limits<std::size_t>::max() / s,
                 "sweep grid overflows std::size_t at axis '" + axis.name + "'");
    n *= s;
  }
  return n;
}

SweepPoint::SweepPoint(const SweepSpec& spec, std::size_t flat)
    : spec_(&spec), flat_(flat), seed_(util::point_seed(spec.base_seed, flat)) {
  // Row-major decomposition: the last axis varies fastest.
  index_.resize(spec.axes.size());
  std::size_t rest = flat;
  for (std::size_t a = spec.axes.size(); a-- > 0;) {
    const std::size_t n = spec.axes[a].size();
    index_[a] = rest % n;
    rest /= n;
  }
  CBMA_ASSERT(rest == 0);
}

double SweepPoint::value(std::size_t axis) const {
  const Axis& ax = spec_->axes.at(axis);
  CBMA_REQUIRE(ax.is_numeric(), "axis '" + ax.name + "' is categorical");
  return ax.values[index_[axis]];
}

const std::string& SweepPoint::label(std::size_t axis) const {
  const Axis& ax = spec_->axes.at(axis);
  CBMA_REQUIRE(!ax.is_numeric(), "axis '" + ax.name + "' is numeric");
  return ax.labels[index_[axis]];
}

void SweepRunner::run(const std::function<void(const SweepPoint&)>& body,
                      std::size_t workers) const {
  const std::size_t n = spec_.point_count();
  const telemetry::ScopedSpan span_run(telemetry::Span::kSweepRun);
  // The threads parallel_for launches, counted before the loop so a metrics
  // window sees them with the run (utilization = Σ sweep/point ÷
  // (sweep/run × workers)).
  telemetry::count(telemetry::Counter::kSweepWorkers,
                   util::worker_count(n, workers));
  util::parallel_for(
      n,
      [&](std::size_t flat) {
        const telemetry::ScopedSpan span_point(telemetry::Span::kSweepPoint);
        telemetry::count(telemetry::Counter::kSweepPoints);
        // Label every probe capture made by this body with its grid point
        // (flat + 1 so point 0 stays the "outside any sweep" marker).
        const probe::ScopedPoint probe_point(flat + 1);
        body(SweepPoint(spec_, flat));
      },
      workers, "sweep/run");
}

std::vector<WatchdogWarning> scan_sweep_anomalies(
    const SweepSpec& spec,
    const std::function<double(std::size_t, const std::string&)>& metric,
    const std::vector<WatchdogRule>& rules) {
  const std::size_t n = spec.point_count();
  // Row-major strides: moving one step along axis a changes flat by
  // stride[a] (the last axis varies fastest).
  std::vector<std::size_t> stride(spec.axes.size(), 1);
  for (std::size_t a = spec.axes.size(); a-- > 1;) {
    stride[a - 1] = stride[a] * spec.axes[a].size();
  }

  std::vector<WatchdogWarning> warnings;
  char buf[256];
  for (const auto& rule : rules) {
    // Orient every comparison so "worse" is always "lower": negate when
    // lower raw values are better (error rates, latencies). A floor with
    // |floor| >= 1e300 is "disabled" regardless of orientation.
    const double sign = rule.higher_is_better ? 1.0 : -1.0;
    const bool has_floor = std::abs(rule.floor) < 1e300;
    for (std::size_t flat = 0; flat < n; ++flat) {
      const double raw = metric(flat, rule.metric);
      const double oriented = sign * raw;

      if (has_floor && oriented < sign * rule.floor) {
        WatchdogWarning warning;
        warning.metric = rule.metric;
        warning.flat = flat;
        warning.kind = "floor";
        warning.value = raw;
        warning.reference = rule.floor;
        std::snprintf(buf, sizeof buf,
                      "%s at point %zu is %g, %s the declared floor %g",
                      rule.metric.c_str(), flat, raw,
                      rule.higher_is_better ? "below" : "above", rule.floor);
        warning.detail = buf;
        warnings.push_back(warning);
      }

      if (rule.neighbor_tolerance >= 1e300) continue;
      for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        const SweepPoint point(spec, flat);
        const std::size_t i = point.index(a);
        double neighbor_sum = 0.0;
        std::size_t neighbor_count = 0;
        if (i > 0) {
          neighbor_sum += sign * metric(flat - stride[a], rule.metric);
          ++neighbor_count;
        }
        if (i + 1 < spec.axes[a].size()) {
          neighbor_sum += sign * metric(flat + stride[a], rule.metric);
          ++neighbor_count;
        }
        // Only interior points along this axis: an edge point on a smooth
        // monotonic curve deviates from its single neighbor by the full
        // step, which is exactly the non-anomaly the tolerance protects.
        if (neighbor_count < 2) continue;
        const double neighbor_mean =
            neighbor_sum / static_cast<double>(neighbor_count);
        if (oriented < neighbor_mean - rule.neighbor_tolerance) {
          WatchdogWarning warning;
          warning.metric = rule.metric;
          warning.flat = flat;
          warning.kind = "neighbor";
          warning.value = raw;
          warning.reference = sign * neighbor_mean;
          std::snprintf(
              buf, sizeof buf,
              "%s at point %zu is %g, deviating from its '%s'-axis "
              "neighbor mean %g by more than %g",
              rule.metric.c_str(), flat, raw, spec.axes[a].name.c_str(),
              sign * neighbor_mean, rule.neighbor_tolerance);
          warning.detail = buf;
          warnings.push_back(warning);
          break;  // one neighbor warning per (rule, point) is enough
        }
      }
    }
  }
  return warnings;
}

}  // namespace cbma::core
