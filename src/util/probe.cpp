#include "util/probe.h"

#include <mutex>
#include <utility>

#include "util/env_switch.h"

namespace cbma::probe {
namespace {

/// One mutex-guarded store for every captured record. The probe is an
/// opt-in debugging instrument with bounded capture depth, so a lock per
/// record is acceptable — and a single ordered store keeps the dump format
/// trivial and the capture TSan-clean under parallel sweeps.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  void add_tap(TapRecord record) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (per_tap_count_[static_cast<std::size_t>(record.tap)] >=
        kMaxRecordsPerTap) {
      ++dropped_taps_;
      return;
    }
    ++per_tap_count_[static_cast<std::size_t>(record.tap)];
    record.seq = next_seq_++;
    taps_.push_back(std::move(record));
  }

  void add_link(LinkQualitySample sample) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (link_.size() >= kMaxLinkQualitySamples) {
      ++dropped_link_;
      return;
    }
    sample.seq = next_seq_++;
    link_.push_back(sample);
  }

  Capture snapshot() {
    const std::lock_guard<std::mutex> lock(mu_);
    Capture out;
    out.taps = taps_;
    out.link = link_;
    out.dropped_taps = dropped_taps_;
    out.dropped_link = dropped_link_;
    return out;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    taps_.clear();
    link_.clear();
    for (auto& c : per_tap_count_) c = 0;
    dropped_taps_ = 0;
    dropped_link_ = 0;
    next_seq_ = 0;
  }

  std::size_t tap_count() {
    const std::lock_guard<std::mutex> lock(mu_);
    return taps_.size();
  }

 private:
  std::mutex mu_;
  std::vector<TapRecord> taps_;
  std::vector<LinkQualitySample> link_;
  std::size_t per_tap_count_[kTapCount] = {};
  std::size_t dropped_taps_ = 0;
  std::size_t dropped_link_ = 0;
  std::uint64_t next_seq_ = 0;
};

util::EnvSwitch& probe_switch() {
  static util::EnvSwitch s("CBMA_PROBE");
  return s;
}

thread_local std::uint64_t t_point = 0;

}  // namespace

const char* tap_name(Tap t) {
  switch (t) {
    case Tap::kExcitationEnvelope: return "excitation_envelope";
    case Tap::kCompositeIq: return "composite_iq";
    case Tap::kSyncEnergy: return "sync_energy";
    case Tap::kCorrelationProfile: return "correlation_profile";
    case Tap::kSoftBits: return "soft_bits";
    case Tap::kCount: break;
  }
  return "unknown";
}

bool enabled() { return probe_switch().on(); }
void set_enabled(bool on) { probe_switch().set_on(on); }

std::string dump_path() { return probe_switch().path(); }
void set_dump_path(std::string path) {
  probe_switch().set_path(std::move(path));
}

void record_tap(Tap t, std::uint32_t context, std::span<const double> samples) {
  if (!enabled()) return;
  TapRecord record;
  record.tap = t;
  record.point = t_point;
  record.context = context;
  const std::size_t n = std::min(samples.size(), kMaxSamplesPerRecord);
  record.data.assign(samples.begin(), samples.begin() + n);
  Registry::instance().add_tap(std::move(record));
}

void record_tap_iq(Tap t, std::uint32_t context,
                   std::span<const std::complex<double>> iq) {
  if (!enabled()) return;
  TapRecord record;
  record.tap = t;
  record.point = t_point;
  record.context = context;
  record.complex_iq = true;
  const std::size_t n = std::min(iq.size(), kMaxSamplesPerRecord);
  record.data.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    record.data.push_back(iq[i].real());
    record.data.push_back(iq[i].imag());
  }
  Registry::instance().add_tap(std::move(record));
}

void record_link_quality(const LinkQualitySample& sample) {
  if (!enabled()) return;
  LinkQualitySample stamped = sample;
  stamped.point = t_point;
  Registry::instance().add_link(stamped);
}

ScopedPoint::ScopedPoint(std::uint64_t point) : active_(enabled()) {
  if (active_) {
    previous_ = t_point;
    t_point = point;
  }
}

ScopedPoint::~ScopedPoint() {
  if (active_) t_point = previous_;
}

std::uint64_t current_point() { return t_point; }

Capture snapshot() { return Registry::instance().snapshot(); }

void reset() { Registry::instance().reset(); }

std::size_t tap_count() { return Registry::instance().tap_count(); }

}  // namespace cbma::probe
