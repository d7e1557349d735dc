#include "util/probe.h"

#include <utility>

#include "util/env_switch.h"

// The record_* entry points and ScopedPoint write into telemetry's one
// registry, so they live with it in util/telemetry.cpp.

namespace cbma::probe {
namespace {

util::EnvSwitch& probe_switch() {
  static util::EnvSwitch s("CBMA_PROBE");
  return s;
}

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

}  // namespace cbma::probe
