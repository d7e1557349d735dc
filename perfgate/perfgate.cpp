// perfgate — single-thread, closed-loop gate benchmark for the CBMA simulator.
//
//   perfgate --workload cell10|floor3x3|stream --seed N --seconds S
//            [--trace 0|1] [--corrupt-expected] [--trace-out PATH]
//
// Every workload's inputs (payloads, delays, tag positions, per-op seeds, the
// streamed IQ) are generated from --seed before anything is timed, and the
// library only ever sees those generated inputs. One op is issued after the
// previous one completes, on the calling thread.
//
// --trace 0 times the ops untraced and reports the end-to-end metrics.
// --trace 1 replays the same op sequence stage by stage through each layer's
// public calls (phy, rfsim, rx, core, net), records one span per call in
// memory, writes the spans to --trace-out at exit and reports per-layer
// metrics. Nothing inside src/ is instrumented for this. RATIONALE.md in this
// directory maps every metric to the workload it should move.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.h"
#include "net/network.h"
#include "phy/tag.h"
#include "pn/code.h"
#include "rfsim/channel.h"
#include "rfsim/excitation.h"
#include "rfsim/interference.h"
#include "rfsim/noise.h"
#include "rx/streaming_receiver.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

using namespace cbma;

namespace {

using Bytes = std::vector<std::uint8_t>;
using Iq = std::vector<std::complex<double>>;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool finite(double x) { return std::isfinite(x); }

// --- tracing ---------------------------------------------------------------
//
// One span per public call. A child span is a re-execution of part of its
// parent's work through the child layer's own entry point, so a span's self
// time is its duration minus its children's durations, and the ledger spans
// of one op add up to the op's real call. Auxiliary spans (the 2-worker
// round, constructor timings) are recorded but kept out of the ledger.

struct Span {
  const char* name;
  std::int32_t parent;
  std::uint64_t op;
  double t0;
  double t1;
  bool ledger;
};

class Tracer {
 public:
  std::uint64_t op = 0;

  std::int32_t open(const char* name, std::int32_t parent, bool ledger = true) {
    spans_.push_back({name, parent, op, now_s(), 0.0, ledger});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].t1 = now_s(); }

  struct Agg {
    double total = 0.0;
    double self = 0.0;
    std::size_t count = 0;
  };

  std::map<std::string, Agg> aggregate() const {
    const auto child = child_durations();
    std::map<std::string, Agg> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      auto& a = out[s.name];
      a.total += s.t1 - s.t0;
      a.self += s.t1 - s.t0 - child[i];
      ++a.count;
    }
    return out;
  }

  /// Self time of every ledger span of `layer` ("phy", "rfsim", ...).
  double layer_self(const std::string& layer) const {
    const auto child = child_durations();
    double self = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      if (s.ledger && std::strncmp(s.name, layer.c_str(), layer.size()) == 0 &&
          s.name[layer.size()] == '.') {
        self += s.t1 - s.t0 - child[i];
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace to " + path);
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"parent\":%d,\"op\":%llu,\"name\":\"%s\","
                    "\"start_us\":%.3f,\"dur_us\":%.3f,\"ledger\":%s}\n",
                    i, s.parent, static_cast<unsigned long long>(s.op), s.name,
                    (s.t0 - base) * 1e6, (s.t1 - s.t0) * 1e6,
                    s.ledger ? "true" : "false");
      out << line;
    }
  }

 private:
  /// Σ duration of each span's children, indexed by span.
  std::vector<double> child_durations() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    return child;
  }

  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int32_t parent, bool ledger = true)
      : t_(t), id_(t.open(name, parent, ledger)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Counts gathered alongside the spans of a traced run.
struct LayerCounts {
  double synth_samples = 0.0;   ///< samples synthesized by rfsim.synth spans
  double fed_samples = 0.0;     ///< samples pushed through rx.feed spans
  double rx_windows = 0.0;      ///< windows the rx stage replay walked
  double triggers = 0.0;        ///< frame-sync comparator triggers
  double detected = 0.0;        ///< codes user detection declared present
  double decoded = 0.0;         ///< of those, frames that decoded
  double resident_bytes = 0.0;  ///< streaming session footprint (last seen)
  double rebuilds = 0.0;        ///< cell systems replaced by a round
  double imbalance_sum = 0.0;   ///< Σ per-round max ÷ mean cell time
};

void count_report(const rx::RxReport& report, LayerCounts& c) {
  for (const auto& r : report.results) {
    c.detected += r.detected ? 1.0 : 0.0;
    c.decoded += r.crc_ok ? 1.0 : 0.0;
  }
}

bool report_finite(const rx::RxReport& report) {
  for (const auto& r : report.results) {
    if (!finite(r.correlation) || !finite(r.correlation_margin)) return false;
  }
  return true;
}

void split(std::span<const std::complex<double>> iq, std::vector<double>& re,
           std::vector<double>& im, std::vector<double>& mag) {
  re.resize(iq.size());
  im.resize(iq.size());
  mag.resize(iq.size());
  for (std::size_t i = 0; i < iq.size(); ++i) {
    re[i] = iq[i].real();
    im[i] = iq[i].imag();
    mag[i] = std::abs(iq[i]);
  }
}

// --- stage replay of one cell transmit ---------------------------------------

/// The receiver's batch stages, built from its config and group codes: frame
/// sync, user detection and one decoder per code.
struct RxStages {
  RxStages(const rx::ReceiverConfig& cfg, std::span<const pn::PnCode> codes)
      : sync(cfg.sync),
        detector(cfg.detect, codes, cfg.preamble_bits, cfg.samples_per_chip) {
    for (const auto& code : codes) {
      decoders.emplace_back(code, cfg.preamble_bits, cfg.samples_per_chip,
                            cfg.phase_tracking_gain);
    }
  }
  rx::FrameSynchronizer sync;
  rx::UserDetector detector;
  std::vector<rx::Decoder> decoders;
  rx::UserDetector::Scratch scratch;
};

/// Rebuilds, from a CbmaSystem's public state, the per-layer objects its
/// transmit() drives — tags, channel, receiver stages — and replays one
/// collided transmission stage by stage under a parent span.
class StageReplay {
 public:
  StageReplay(const core::CbmaSystem& sys, const rfsim::ExcitationSource& excitation,
              std::vector<std::unique_ptr<rfsim::Interferer>> interferers)
      : sys_(sys),
        excitation_(excitation),
        interferers_(std::move(interferers)),
        channel_(channel_config(sys, sys.noise_power_w())),
        quiet_(channel_config(sys, 0.0)),
        stages_(sys.receiver().config(), sys.group_codes()),
        session_(sys.receiver()) {
    const auto& cfg = sys.config();
    const auto& codes = sys.group_codes();
    for (std::size_t k = 0; k < sys.group_size(); ++k) {
      phy::TagConfig tc;
      tc.id = static_cast<std::uint32_t>(k);
      tc.code = codes[k];
      tc.preamble_bits = cfg.preamble_bits;
      tc.impedance_levels = sys.impedance_level_count();
      tags_.emplace_back(tc);
      amplitudes_.push_back(std::sqrt(
          units::dbm_to_watts(sys.received_power_dbm(sys.active_group()[k]))));
    }
    for (const auto& itf : interferers_) itf_ptrs_.push_back(itf.get());
    sample_rate_hz_ = channel_.sample_rate_hz();
  }

  /// One transmission of `payloads` (one per group slot) at `delays` chips.
  /// `rng` is the transmit's stream as it stands at the phase/CFO draws
  /// (after any payload and delay draws), so the replay draws phase, CFO,
  /// noise and interferer phases in transmit()'s order.
  void run(Tracer& t, std::int32_t parent, std::span<const Bytes> payloads,
           std::span<const double> delays, Rng rng, LayerCounts& counts) {
    const auto& cfg = sys_.config();
    const std::size_t n = tags_.size();
    chips_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const Scope s(t, "phy.spread", parent);
      tags_[k].chip_sequence_into(payloads[k], bits_, chips_[k]);
    }
    txs_.clear();
    for (std::size_t k = 0; k < n; ++k) {
      rfsim::TagTransmission tx;
      tx.chips = chips_[k];
      tx.amplitude = amplitudes_[k];
      tx.phase = rng.phase();
      tx.delay_chips = cfg.lead_in_chips + delays[k];
      tx.freq_offset_hz = rng.uniform(-cfg.cfo_max_hz, cfg.cfo_max_hz);
      txs_.push_back(tx);
    }

    std::int32_t synth = 0;
    {
      const Scope s(t, "rfsim.synth", parent);
      synth = s.id();
      channel_.receive_into(txs_, excitation_, itf_ptrs_, rng, channel_scratch_, iq_);
    }
    counts.synth_samples += static_cast<double>(iq_.size());
    Rng side(util::point_seed(rng.seed(), 1));
    envelope_.assign(iq_.size(), 1.0);
    {
      const Scope s(t, "rfsim.envelope", synth);
      excitation_.envelope(envelope_, sample_rate_hz_, side);
    }
    {
      const Scope s(t, "rfsim.tag_paths", synth);
      quiet_.receive_into(txs_, tone_, {}, side, quiet_scratch_, work_);
    }
    for (const auto* itf : itf_ptrs_) {
      work_.assign(iq_.size(), {0.0, 0.0});
      const Scope s(t, "rfsim.interferers", synth);
      itf->add_to(work_, sample_rate_hz_, side);
    }
    work_.assign(iq_.size(), {0.0, 0.0});
    {
      const Scope s(t, "rfsim.noise", synth);
      rfsim::AwgnSource(sys_.noise_power_w()).add_to(work_, side);
    }

    std::int32_t process = 0;
    {
      const Scope s(t, "rx.process", parent);
      process = s.id();
      report_ = session_.process(iq_);
    }
    count_report(report_, counts);
    split(iq_, re_, im_, mag_);
    rx_stages(t, process, counts);
    counts.resident_bytes = static_cast<double>(session_.resident_bytes());
  }

 private:
  /// Frame sync → user detection → per-user decode on the split window.
  void rx_stages(Tracer& t, std::int32_t parent, LayerCounts& counts) {
    counts.rx_windows += 1.0;
    counts.triggers += static_cast<double>(
        stages_.sync.detect_all(mag_, sys_.receiver().config().sync.window).size());
    std::optional<std::size_t> trigger;
    {
      const Scope s(t, "rx.frame_sync", parent);
      trigger = stages_.sync.detect(mag_);
    }
    if (!trigger) return;
    std::vector<rx::DetectedUser> users;
    {
      const Scope s(t, "rx.detect", parent);
      users = stages_.detector.detect(rx::DetectionInput{re_, im_, *trigger},
                                      stages_.scratch);
    }
    for (const auto& u : users) {
      const Scope s(t, "rx.decode", parent);
      (void)stages_.decoders[u.tag_index].decode(re_, im_, u.offset_samples, u.phase);
    }
  }

  static rfsim::ChannelConfig channel_config(const core::CbmaSystem& sys,
                                             double noise_power_w) {
    const auto& cfg = sys.config();
    rfsim::ChannelConfig ch;
    ch.samples_per_chip = cfg.samples_per_chip;
    ch.chip_rate_hz = cfg.chip_rate_hz();
    ch.noise_power_w = noise_power_w;
    ch.multipath = cfg.multipath;
    ch.impairments = cfg.impairments;
    return ch;
  }

  const core::CbmaSystem& sys_;
  const rfsim::ExcitationSource& excitation_;
  std::vector<std::unique_ptr<rfsim::Interferer>> interferers_;
  std::vector<const rfsim::Interferer*> itf_ptrs_;
  rfsim::Channel channel_;
  rfsim::Channel quiet_;  ///< same geometry, zero noise: tag paths alone
  rfsim::ContinuousTone tone_;
  RxStages stages_;
  rx::StreamingReceiver session_;
  std::vector<phy::Tag> tags_;
  std::vector<double> amplitudes_;
  double sample_rate_hz_ = 0.0;

  std::vector<Bytes> chips_;
  Bytes bits_;
  std::vector<rfsim::TagTransmission> txs_;
  rfsim::ChannelScratch channel_scratch_;
  rfsim::ChannelScratch quiet_scratch_;
  Iq iq_;
  Iq work_;
  std::vector<double> envelope_;
  std::vector<double> re_, im_, mag_;
  rx::RxReport report_;
};

// --- workloads -------------------------------------------------------------

struct OpCheck {
  bool ok = true;
  double samples = 0.0;  ///< simulated samples the op processed
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up: the constructors a user pays before the first op. Releases
  /// the previous state first, so repeated set-ups do not stack up memory.
  virtual void build() = 0;
  /// The timed op.
  virtual void run_op(std::size_t i) = 0;
  /// Untimed check of op i's outputs (run right after it).
  virtual OpCheck check_op(std::size_t i) = 0;
  /// Ops that must be checked for delivery_ratio to be defined.
  virtual std::size_t min_ops() const = 0;
  virtual double delivery_ratio() const = 0;
  virtual double sample_rate_hz() const = 0;
  /// Untimed end-of-run checks; returns the number of failed ops found.
  virtual std::size_t verify_end() { return 0; }
  /// Corrupt what the checks expect, so a correct run must report failed
  /// ops (the benchmark's own smoke test).
  virtual void corrupt_expected() = 0;
  /// Fresh state for the traced phase (defaults to build()).
  virtual void prepare_trace() { build(); }
  /// Constructor timings as auxiliary spans.
  virtual void trace_build(Tracer& t) = 0;
  /// Op i replayed stage by stage under span `root`. False when a
  /// re-execution disagreed with the real op (a failed op).
  virtual bool traced_op(std::size_t i, Tracer& t, std::int32_t root,
                         LayerCounts& counts) = 0;
};

// cell10: one CbmaSystem::transmit of a 10-tag group per op, inputs cycled.
class CellWorkload final : public Workload {
 public:
  static constexpr std::size_t kTags = 10;
  static constexpr std::size_t kInputs = 2048;  ///< distinct op inputs per cycle

  explicit CellWorkload(std::uint64_t seed) {
    config_.max_tags = kTags;
    for (std::size_t k = 0; k < kTags; ++k) {
      positions_.push_back({0.1 * static_cast<double>(k), 0.6});
    }
    // Input 0 is the set-up's warm-up op; it comes from a fixed seed so that
    // setup_s times the same work whatever --seed is.
    constexpr std::uint64_t kWarmUpSeed = 0x5E7A9;
    payloads_.resize(kInputs);
    delays_.resize(kInputs);
    Rng warm(kWarmUpSeed);
    Rng gen(seed);
    for (std::size_t k = 0; k < kInputs; ++k) {
      Rng& src = k == 0 ? warm : gen;
      for (std::size_t s = 0; s < kTags; ++s) {
        Bytes p(config_.payload_bytes);
        for (auto& b : p) b = static_cast<std::uint8_t>(src.uniform_int(0, 255));
        payloads_[k].push_back(std::move(p));
        delays_[k].push_back(src.uniform(0.0, config_.max_async_jitter_chips));
      }
      op_seeds_.push_back(util::point_seed(k == 0 ? kWarmUpSeed : seed, k));
    }
    expected_ = payloads_;
    signatures_.assign(kInputs, -1);
    sample_rate_hz_ = config_.sample_rate_hz();
  }

  void build() override {
    scratch_.reset();
    sys_.reset();
    auto dep = rfsim::Deployment::paper_frame();
    for (const auto& p : positions_) dep.add_tag(p);
    sys_ = std::make_unique<core::CbmaSystem>(config_, dep);
    scratch_ = std::make_unique<core::TransmitScratch>();
  }

  void run_op(std::size_t i) override {
    const std::size_t k = i % kInputs;
    core::TransmitOptions options;
    options.payloads = payloads_[k];
    options.delay_chips = delays_[k];
    Rng rng(op_seeds_[k]);
    report_ = sys_->transmit(options, rng, *scratch_);
  }

  OpCheck check_op(std::size_t i) override {
    const std::size_t k = i % kInputs;
    OpCheck c;
    c.samples = static_cast<double>(scratch_->iq.size());
    if (!report_finite(report_) || report_.results.size() != kTags) {
      c.ok = false;
      return c;
    }
    long signature = 0;
    std::size_t delivered = 0;
    for (std::size_t s = 0; s < kTags; ++s) {
      const auto& r = report_.results[s];
      if (!r.crc_ok) continue;
      if (r.payload != expected_[k][s]) c.ok = false;
      signature |= 1L << s;
      ++delivered;
    }
    // Op i and op i + inputs replay identical inputs: the outcome must repeat.
    if (signatures_[k] < 0) {
      signatures_[k] = signature;
      delivered_ += delivered;
      sent_ += kTags;
    } else if (signatures_[k] != signature) {
      c.ok = false;
    }
    return c;
  }

  std::size_t min_ops() const override { return kInputs; }
  double delivery_ratio() const override {
    return ratio(static_cast<double>(delivered_), static_cast<double>(sent_));
  }
  double sample_rate_hz() const override { return sample_rate_hz_; }
  void corrupt_expected() override {
    for (auto& frames : expected_) {
      for (auto& payload : frames) payload[0] ^= 0x01;
    }
  }

  void prepare_trace() override {
    build();
    replay_ = std::make_unique<StageReplay>(*sys_, tone_,
                                            std::vector<std::unique_ptr<rfsim::Interferer>>{});
  }

  void trace_build(Tracer& t) override {
    auto dep = rfsim::Deployment::paper_frame();
    for (const auto& p : positions_) dep.add_tag(p);
    for (int r = 0; r < 5; ++r) {
      const Scope s(t, "core.build", -1, false);
      const core::CbmaSystem sys(config_, dep);
    }
  }

  bool traced_op(std::size_t i, Tracer& t, std::int32_t root,
                 LayerCounts& counts) override {
    const std::size_t k = i % kInputs;
    std::int32_t tx = 0;
    {
      const Scope s(t, "core.transmit", root);
      tx = s.id();
      run_op(i);
    }
    counts.resident_bytes =
        static_cast<double>(scratch_->rx_session->resident_bytes());
    replay_->run(t, tx, payloads_[k], delays_[k], Rng(op_seeds_[k]), counts);
    return true;
  }

 private:
  core::SystemConfig config_;
  std::vector<rfsim::Point> positions_;
  std::vector<std::vector<Bytes>> payloads_;
  std::vector<std::vector<Bytes>> expected_;
  std::vector<std::vector<double>> delays_;
  std::vector<std::uint64_t> op_seeds_;
  std::vector<long> signatures_;
  std::size_t delivered_ = 0;
  std::size_t sent_ = 0;
  double sample_rate_hz_ = 0.0;

  std::unique_ptr<core::CbmaSystem> sys_;
  std::unique_ptr<core::TransmitScratch> scratch_;
  rx::RxReport report_;
  rfsim::ContinuousTone tone_;  ///< the system's default excitation
  std::unique_ptr<StageReplay> replay_;
};

// floor3x3: one Network::run_round(seed_i, 1) per op on a 3×3 floor.
bool same_cell(const net::CellRoundResult& a, const net::CellRoundResult& b) {
  return a.gateway_id == b.gateway_id && a.stats.sent == b.stats.sent &&
         a.stats.acked == b.stats.acked && a.stats.outcomes == b.stats.outcomes &&
         a.goodput_bps == b.goodput_bps && a.interference_dbm == b.interference_dbm &&
         a.tags_served == b.tags_served && a.tags_total == b.tags_total &&
         a.members == b.members && a.per_tag_goodput_bps == b.per_tag_goodput_bps;
}

bool same_round(const net::NetworkRoundResult& a, const net::NetworkRoundResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    if (!same_cell(a.cells[c], b.cells[c])) return false;
  }
  return a.aggregate_goodput_bps == b.aggregate_goodput_bps &&
         a.jain_fairness == b.jain_fairness && a.roamed == b.roamed &&
         a.tags_served == b.tags_served && a.tags_total == b.tags_total;
}

class FloorWorkload final : public Workload {
 public:
  static constexpr std::size_t kSide = 3;
  static constexpr double kBayW = 6.0;
  static constexpr double kBayH = 4.0;
  static constexpr std::size_t kReplayOps = 4;   ///< ops re-checked cell by cell
  static constexpr std::size_t kDeliveryOps = 192;
  static constexpr std::size_t kEpoch = 8;  ///< rounds between re-seating tags

  explicit FloorWorkload(std::uint64_t seed) : seed_(seed) {
    config_.cell.code_family = pn::CodeFamily::kGold;
    config_.cell.max_tags = 8;
    config_.cell.tx_power_dbm = 30.0;
    config_.reuse.family_size = 64;
    config_.packets_per_round = 2;
    config_.tag_step_m = 0.25;
    // Tag positions, drawn here from the seed: in every 6 m × 4 m bay, one
    // tag per quadrant, jittered uniformly by ±0.1 m around the quadrant
    // centre (≥ 0.9 m clear of the bay's ES and RX). Jittering a lattice
    // instead of scattering 36 tags anywhere keeps the per-cell load and the
    // spread of link budgets, and with them the work and the delivery of a
    // round, alike across seeds.
    const auto probe = make_network();
    Rng gen(seed);
    for (const auto& bay : probe->gateways()) {
      const auto centre = bay.center();
      for (const double sx : {-1.0, 1.0}) {
        for (const double sy : {-1.0, 1.0}) {
          positions_.push_back({centre.x + sx * kBayW / 4.0 + gen.uniform(-0.1, 0.1),
                                centre.y + sy * kBayH / 4.0 + gen.uniform(-0.1, 0.1)});
        }
      }
    }
    auto cell_cfg = config_.cell;
    cell_cfg.code_family_size = config_.reuse.family_size;
    sample_rate_hz_ = cell_cfg.sample_rate_hz();
  }

  void build() override {
    net_.reset();
    net_ = populated();
  }

  void run_op(std::size_t i) override { result_ = play_round(*net_, i, 1); }

  OpCheck check_op(std::size_t i) override {
    OpCheck c;
    if (window_samples_ == 0.0) window_samples_ = measure_window();
    for (std::size_t cell = 0; cell < result_.cells.size(); ++cell) {
      const auto& r = result_.cells[cell];
      if (!finite(r.goodput_bps)) c.ok = false;
      if (r.tags_served > 0) {
        c.samples += static_cast<double>(config_.packets_per_round) * window_samples_;
      }
      // Per-cell replays under the round's per-cell seed: Cell::run_round
      // must reproduce what the round reported for that cell, and the
      // cell's packets, re-sent, must carry the payloads that were sent.
      if (i < kReplayOps) {
        const std::uint64_t cell_seed = util::point_seed(round_seed(i), cell);
        const auto& here = net_->cell(cell);
        Rng rng(cell_seed);
        if (!same_cell(here.run_round(config_.scheme, config_.packets_per_round,
                                      config_.fsa, rng),
                       r)) {
          c.ok = false;
        }
        if (here.served() > 0 && !resend_packets(*here.system(), cell_seed, r)) {
          c.ok = false;
        }
      }
    }
    if (!finite(result_.aggregate_goodput_bps) || !finite(result_.jain_fairness)) {
      c.ok = false;
    }
    if (i < kReplayOps && recorded_.size() == i) recorded_.push_back(result_);
    if (i < kDeliveryOps && counted_ == i) {
      for (const auto& r : result_.cells) {
        acked_ += r.stats.total_acked();
        sent_ += r.stats.total_sent();
      }
      ++counted_;
    }
    return c;
  }

  /// The same rounds on a fresh twin floor at 2 workers must be identical.
  std::size_t verify_end() override {
    auto twin = populated();
    std::size_t failed = 0;
    for (std::size_t i = 0; i < recorded_.size(); ++i) {
      if (!same_round(play_round(*twin, i, 2), recorded_[i])) ++failed;
    }
    return failed;
  }

  std::size_t min_ops() const override { return kDeliveryOps; }
  double delivery_ratio() const override {
    return ratio(static_cast<double>(acked_), static_cast<double>(sent_));
  }
  double sample_rate_hz() const override { return sample_rate_hz_; }
  void corrupt_expected() override { corrupt_ = true; }

  void prepare_trace() override {
    net_ = populated();
    twin_ = populated();
  }

  void trace_build(Tracer& t) override {
    auto net = populated();
    net->run_round(round_seed(0), 1);
    for (std::size_t c = 0; c < net->cell_count(); ++c) {
      const auto* sys = net->cell(c).system();
      if (sys == nullptr) continue;
      const Scope s(t, "core.build", -1, false);
      const core::CbmaSystem copy(sys->config(), sys->population());
    }
  }

  bool traced_op(std::size_t i, Tracer& t, std::int32_t root,
                 LayerCounts& counts) override {
    const std::uint64_t seed = round_seed(i);
    bool agree = true;
    std::vector<const core::CbmaSystem*> before;
    for (std::size_t c = 0; c < net_->cell_count(); ++c) {
      before.push_back(net_->cell(c).system());
    }
    std::int32_t round = 0;
    {
      const Scope s(t, "net.round", root);
      round = s.id();
      run_op(i);
    }
    {
      // Right after a round no gateway beats a serving one by the
      // hysteresis margin, so this pass times roam() without moving a tag.
      const Scope s(t, "net.roam", round);
      if (net_->roam() != 0) throw std::runtime_error("post-round roam moved tags");
    }
    double max_cell = 0.0, sum_cell = 0.0;
    std::size_t busy_cells = 0;
    for (std::size_t c = 0; c < net_->cell_count(); ++c) {
      const auto& cell = net_->cell(c);
      if (cell.system() != before[c] && cell.system() != nullptr) counts.rebuilds += 1.0;
      const double t0 = now_s();
      std::int32_t cr = 0;
      {
        const Scope s(t, "net.cell_round", round);
        cr = s.id();
        Rng rng(util::point_seed(seed, c));
        if (!same_cell(cell.run_round(config_.scheme, config_.packets_per_round,
                                      config_.fsa, rng),
                       result_.cells[c])) {
          agree = false;
        }
      }
      const double dt = now_s() - t0;
      const auto* sys = cell.system();
      if (sys == nullptr || cell.served() == 0) continue;
      max_cell = std::max(max_cell, dt);
      sum_cell += dt;
      ++busy_cells;
      if (!replay_cell(t, cr, *sys, c, seed, counts)) agree = false;
    }
    if (busy_cells > 0) {
      counts.imbalance_sum += max_cell / (sum_cell / static_cast<double>(busy_cells));
    }
    net::NetworkRoundResult twin;
    {
      const Scope s(t, "aux.round_2w", root, false);
      twin = play_round(*twin_, i, 2);
    }
    return agree && same_round(twin, result_);
  }

 private:
  std::unique_ptr<net::Network> make_network() const {
    const double w = kBayW * static_cast<double>(kSide);
    const double h = kBayH * static_cast<double>(kSide);
    return std::make_unique<net::Network>(net::Network::grid(config_, w, h, kSide, kSide));
  }

  std::unique_ptr<net::Network> populated() const {
    auto net = make_network();
    for (const auto& p : positions_) net->add_tag(p);
    return net;
  }

  /// Round i of the op sequence. Every kEpoch rounds the tags are moved
  /// back to their start positions (scripted mobility through
  /// Network::move_tag), so the random walk explores the same floor in
  /// every run instead of drifting wherever a seed's walk leads.
  net::NetworkRoundResult play_round(net::Network& net, std::size_t i,
                                     std::size_t workers) const {
    if (i > 0 && i % kEpoch == 0) {
      for (std::size_t t = 0; t < positions_.size(); ++t) net.move_tag(t, positions_[t]);
    }
    return net.run_round(round_seed(i), workers);
  }

  std::uint64_t round_seed(std::size_t i) const {
    return util::point_seed(seed_ ^ 0xF1005EEDull, i);
  }

  /// Window length of one cell transmission (every cell shares the family,
  /// so every cell's window has the same length up to jitter rounding).
  double measure_window() const {
    for (std::size_t c = 0; c < net_->cell_count(); ++c) {
      const auto* sys = net_->cell(c).system();
      if (sys == nullptr) continue;
      core::TransmitScratch scratch;
      Rng rng(1);
      (void)sys->transmit({}, rng, scratch);
      return static_cast<double>(scratch.iq.size());
    }
    return 0.0;
  }

  /// Where a traced re-send records its spans and replays its stages.
  struct ReplaySink {
    Tracer& t;
    std::int32_t parent;
    StageReplay& stages;
    LayerCounts& counts;
  };

  /// Re-sends the cell's packets of one round the way
  /// CbmaSystem::run_packets sends them: one Rng(cell_seed) across the
  /// packets, each transmit drawing its payloads and then its delays first,
  /// so a copy of the stream taken before a transmit recovers what it sent.
  /// With a sink, each transmit runs under a core.transmit span and is then
  /// replayed stage by stage on its own payloads, delays and stream. True
  /// when every CRC-passing frame carries the payload that was sent and the
  /// per-slot acks repeat the round's.
  bool resend_packets(const core::CbmaSystem& sys, std::uint64_t cell_seed,
                      const net::CellRoundResult& round,
                      const ReplaySink* sink = nullptr) {
    const std::size_t n = sys.group_size();
    std::vector<Bytes> sent(n, Bytes(sys.config().payload_bytes));
    std::vector<double> delays(n);
    std::vector<std::size_t> acked(n, 0);
    bool ok = true;
    Rng rng(cell_seed);
    for (std::size_t p = 0; p < config_.packets_per_round; ++p) {
      Rng drawn = rng;
      for (auto& payload : sent) {
        for (auto& b : payload) b = static_cast<std::uint8_t>(drawn.uniform_int(0, 255));
      }
      for (auto& d : delays) d = drawn.uniform(0.0, sys.config().max_async_jitter_chips);
      rx::RxReport report;
      if (sink == nullptr) {
        report = sys.transmit({}, rng, scratch_);
      } else {
        std::int32_t tx = 0;
        {
          const Scope s(sink->t, "core.transmit", sink->parent);
          tx = s.id();
          report = sys.transmit({}, rng, scratch_);
        }
        sink->stages.run(sink->t, tx, sent, delays, drawn, sink->counts);
      }
      for (std::size_t s = 0; s < n; ++s) {
        const auto& r = report.results[s];
        if (!r.crc_ok) continue;
        if (corrupt_) sent[s][0] ^= 0x01;
        if (r.payload != sent[s]) ok = false;
        ++acked[s];
      }
    }
    return ok && acked == round.stats.acked;
  }

  /// The cell's packets re-sent and replayed stage by stage, with the
  /// cell's foreign-gateway leakage rebuilt from the network's public
  /// geometry (power as net::Network computes it on an obstacle-free floor;
  /// the 40 Hz-per-gateway offset spread mirrors its private
  /// leak_freq_offset_hz). False when the re-sent packets disagree with the
  /// round, or the rebuilt leakage power with the interference the round
  /// reported for the cell.
  bool replay_cell(Tracer& t, std::int32_t parent, const core::CbmaSystem& sys,
                   std::size_t cell, std::uint64_t seed, LayerCounts& counts) {
    std::vector<std::unique_ptr<rfsim::Interferer>> leaks;
    double leak_w = 0.0;
    const auto& here = net_->gateways()[cell];
    const auto& budget = net_->link_budget();
    for (const auto& other : net_->gateways()) {
      if (other.id == cell) continue;
      const double d = std::max(rfsim::distance(other.es, here.rx), budget.min_separation_m);
      const double p = budget.one_hop_power(d) *
                       units::from_db(-config_.reuse.leakage_rejection_db);
      leak_w += p;
      leaks.push_back(std::make_unique<rfsim::CarrierLeakageInterferer>(
          p, 40.0 * static_cast<double>(other.id + 1)));
    }
    const auto& round = result_.cells[cell];
    const bool same_leak =
        std::abs(units::watts_to_dbm(leak_w) - round.interference_dbm) < 1e-9;
    StageReplay replay(sys, tone_, std::move(leaks));
    const ReplaySink sink{t, parent, replay, counts};
    return resend_packets(sys, util::point_seed(seed, cell), round, &sink) && same_leak;
  }

  std::uint64_t seed_;
  net::NetworkConfig config_;
  std::vector<rfsim::Point> positions_;
  double sample_rate_hz_ = 0.0;
  double window_samples_ = 0.0;
  bool corrupt_ = false;

  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::Network> twin_;
  net::NetworkRoundResult result_;
  std::vector<net::NetworkRoundResult> recorded_;
  std::size_t counted_ = 0;
  std::size_t acked_ = 0;
  std::size_t sent_ = 0;
  rfsim::ContinuousTone tone_;
  core::TransmitScratch scratch_;
};

// stream: 64 Ki samples per op, fed as 16 × 4096-sample chunks.
class StreamWorkload final : public Workload {
 public:
  static constexpr std::size_t kTags = 4;
  static constexpr std::size_t kRounds = 4;
  static constexpr std::size_t kChunk = 4096;
  static constexpr std::size_t kChunksPerOp = 16;
  static constexpr std::size_t kOpSamples = kChunk * kChunksPerOp;
  static constexpr std::size_t kMinGap = 1000;  ///< shortest noise gap (samples)

  explicit StreamWorkload(std::uint64_t seed) {
    config_.max_tags = kTags;
    auto dep = rfsim::Deployment::paper_frame();
    for (std::size_t k = 0; k < kTags; ++k) {
      dep.add_tag({0.1 * static_cast<double>(k), 0.6});
    }
    // The system only supplies codes, amplitudes and the receiver config;
    // the stream itself is synthesized here, once, from the seed.
    const core::CbmaSystem sys(config_, dep);
    rx_config_ = sys.receiver().config();
    rx_config_.max_payload_bytes = config_.payload_bytes;  // back-to-back rounds
    codes_ = sys.group_codes();
    rfsim::ChannelConfig ch;
    ch.samples_per_chip = config_.samples_per_chip;
    ch.chip_rate_hz = config_.chip_rate_hz();
    ch.noise_power_w = sys.noise_power_w();
    const rfsim::Channel channel(ch);
    sample_rate_hz_ = channel.sample_rate_hz();
    const rfsim::AwgnSource noise(sys.noise_power_w());

    Rng gen(seed);
    std::vector<phy::Tag> tags;
    for (std::size_t k = 0; k < kTags; ++k) {
      phy::TagConfig tc;
      tc.id = static_cast<std::uint32_t>(k);
      tc.code = codes_[k];
      tc.preamble_bits = config_.preamble_bits;
      tags.emplace_back(tc);
    }
    std::vector<Iq> windows;
    for (std::size_t r = 0; r < kRounds; ++r) {
      Round round;
      std::vector<Bytes> chips(kTags);
      std::vector<rfsim::TagTransmission> txs;
      for (std::size_t k = 0; k < kTags; ++k) {
        Bytes p(config_.payload_bytes);
        for (auto& b : p) b = static_cast<std::uint8_t>(gen.uniform_int(0, 255));
        chips[k] = tags[k].chip_sequence(p);
        round.payloads.push_back(std::move(p));
        rfsim::TagTransmission tx;
        tx.chips = chips[k];
        tx.amplitude = std::sqrt(units::dbm_to_watts(sys.received_power_dbm(k)));
        tx.phase = gen.phase();
        tx.delay_chips = sys.config().lead_in_chips +
                         gen.uniform(0.0, config_.max_async_jitter_chips);
        tx.freq_offset_hz = gen.uniform(-config_.cfo_max_hz, config_.cfo_max_hz);
        txs.push_back(tx);
      }
      windows.push_back(channel.receive(txs, gen));
      rounds_.push_back(std::move(round));
    }
    // Noise gaps of varying length that together fill the stream to exactly
    // one op: every op then feeds the same rounds at the same phase, so ops
    // are uniform work whatever the seed, and no chunk wraps the replay.
    std::size_t spare = kOpSamples;
    for (const auto& w : windows) spare -= std::min(spare, w.size());
    if (spare < kRounds * kMinGap) throw std::logic_error("stream rounds overflow one op");
    std::vector<double> weights(kRounds);
    double weight_sum = 0.0;
    for (auto& w : weights) weight_sum += (w = gen.uniform(0.1, 1.0));
    std::size_t extra = spare - kRounds * kMinGap;
    for (std::size_t r = 0; r < kRounds; ++r) {
      rounds_[r].start = stream_.size();
      stream_.insert(stream_.end(), windows[r].begin(), windows[r].end());
      rounds_[r].end = stream_.size();
      const auto share = r + 1 == kRounds
                             ? extra
                             : static_cast<std::size_t>(static_cast<double>(spare - kRounds * kMinGap) *
                                                        weights[r] / weight_sum);
      extra -= share;
      Iq gap(kMinGap + share, {0.0, 0.0});
      noise.add_to(gap, gen);
      stream_.insert(stream_.end(), gap.begin(), gap.end());
    }
    expected_.resize(kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) expected_[r] = rounds_[r].payloads;
  }

  void build() override {
    session_.reset();
    receiver_.reset();
    receiver_ = std::make_unique<rx::Receiver>(rx_config_, codes_);
    session_ = std::make_unique<rx::StreamingReceiver>(
        *receiver_, [this](rx::RxReport r) { pending_.push_back(std::move(r)); });
    pending_.clear();
    delivered_.clear();
    consumed_ = 0;
  }

  void run_op(std::size_t i) override {
    for (std::size_t c = 0; c < kChunksPerOp; ++c) session_->feed(chunk(i, c));
  }

  OpCheck check_op(std::size_t i) override {
    OpCheck c;
    c.samples = static_cast<double>(kOpSamples);
    consumed_ = (i + 1) * kOpSamples;
    const std::size_t length = stream_.size();
    for (const auto& report : pending_) {
      if (!report_finite(report) || !report.frame_start) {
        c.ok = false;
        continue;
      }
      const std::size_t cycle = *report.frame_start / length;
      const std::size_t at = *report.frame_start % length;
      const Round* round = nullptr;
      std::size_t index = 0;
      for (std::size_t r = 0; r < rounds_.size(); ++r) {
        if (at >= rounds_[r].start && at < rounds_[r].end) {
          round = &rounds_[r];
          index = r;
        }
      }
      for (const auto& res : report.results) {
        if (!res.crc_ok) continue;
        if (round == nullptr || res.payload != expected_[index][res.tag_index]) {
          c.ok = false;
          continue;
        }
        if (delivered_.size() <= cycle) delivered_.resize(cycle + 1, 0);
        ++delivered_[cycle];
      }
      count_report(report, report_counts_);
    }
    pending_.clear();
    return c;
  }

  std::size_t min_ops() const override {
    return (stream_.size() + kOpSamples - 1) / kOpSamples + 1;
  }
  /// Delivered ÷ sent over every stream cycle the run completed. Each cycle
  /// replays the same samples, so the ratio is exact at a seed unless the
  /// receiver's numerics drift as stream positions grow.
  double delivery_ratio() const override {
    const std::size_t cycles = consumed_ / stream_.size();
    double delivered = 0.0;
    for (std::size_t k = 0; k < cycles && k < delivered_.size(); ++k) {
      delivered += static_cast<double>(delivered_[k]);
    }
    return ratio(delivered, static_cast<double>(cycles * kRounds * kTags));
  }
  double sample_rate_hz() const override { return sample_rate_hz_; }
  void corrupt_expected() override {
    for (auto& frames : expected_) {
      for (auto& payload : frames) payload[0] ^= 0x01;
    }
  }

  void trace_build(Tracer& t) override {
    for (int r = 0; r < 5; ++r) {
      const Scope s(t, "rx.build", -1, false);
      const rx::Receiver receiver(rx_config_, codes_);
    }
  }

  bool traced_op(std::size_t i, Tracer& t, std::int32_t root,
                 LayerCounts& counts) override {
    for (std::size_t c = 0; c < kChunksPerOp; ++c) {
      const Scope s(t, "rx.feed", root);
      session_->feed(chunk(i, c));
    }
    counts.fed_samples += static_cast<double>(kOpSamples);
    counts.resident_bytes = static_cast<double>(session_->resident_bytes());
    counts.detected = report_counts_.detected;
    counts.decoded = report_counts_.decoded;

    // Batch stages over the op's window (the stream is exactly one op long),
    // outside the ledger: each comparator trigger with room for a whole
    // frame is detected and decoded.
    if (!stages_) {
      stages_ = std::make_unique<RxStages>(rx_config_, codes_);
      split(stream_, re_, im_, mag_);
    }
    counts.rx_windows += 1.0;
    const std::size_t frame =
        (config_.preamble_bits + 8 * (config_.payload_bytes + 4)) *
        codes_[0].length() * config_.samples_per_chip;
    std::size_t begin = 0;
    while (true) {
      std::optional<std::size_t> trigger;
      {
        const Scope s(t, "rx.frame_sync", root, false);
        trigger = stages_->sync.detect(mag_, begin);
      }
      if (!trigger || *trigger + frame >= mag_.size()) break;
      counts.triggers += 1.0;
      std::vector<rx::DetectedUser> users;
      {
        const Scope s(t, "rx.detect", root, false);
        users = stages_->detector.detect(rx::DetectionInput{re_, im_, *trigger},
                                         stages_->scratch);
      }
      for (const auto& u : users) {
        const Scope s(t, "rx.decode", root, false);
        (void)stages_->decoders[u.tag_index].decode(re_, im_, u.offset_samples, u.phase);
      }
      begin = *trigger + frame;
    }
    return true;
  }

 private:
  struct Round {
    std::size_t start = 0;
    std::size_t end = 0;
    std::vector<Bytes> payloads;
  };
  /// Chunk c of op i. The stream is a whole number of chunks (one op)
  /// long, so the cyclic replay never splits a chunk at the wrap-around.
  std::span<const std::complex<double>> chunk(std::size_t i, std::size_t c) const {
    const std::size_t at = ((i * kChunksPerOp + c) * kChunk) % stream_.size();
    return std::span<const std::complex<double>>(stream_).subspan(at, kChunk);
  }

  core::SystemConfig config_;
  rx::ReceiverConfig rx_config_;
  std::vector<pn::PnCode> codes_;
  Iq stream_;
  std::vector<Round> rounds_;
  std::vector<std::vector<Bytes>> expected_;
  double sample_rate_hz_ = 0.0;

  std::unique_ptr<rx::Receiver> receiver_;
  std::unique_ptr<rx::StreamingReceiver> session_;
  std::vector<rx::RxReport> pending_;
  std::vector<std::size_t> delivered_;  ///< correct frames per stream cycle
  std::size_t consumed_ = 0;
  LayerCounts report_counts_;
  std::unique_ptr<RxStages> stages_;
  std::vector<double> re_, im_, mag_;  ///< split stream for the stage replay
};

// --- driver ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfgate: %s\nusage: perfgate --workload cell10|floor3x3|stream "
               "--seed N --seconds S [--trace 0|1] [--corrupt-expected] "
               "[--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-expected") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string v = argv[++i];
    try {
      if (key == "--workload") a.workload = v;
      else if (key == "--seed") a.seed = std::stoull(v);
      else if (key == "--seconds") a.seconds = std::stod(v);
      else if (key == "--trace") a.trace = std::stoi(v) != 0;
      else if (key == "--trace-out") a.trace_out = v;
      else usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "cell10") return std::make_unique<CellWorkload>(seed);
  if (name == "floor3x3") return std::make_unique<FloorWorkload>(seed);
  if (name == "stream") return std::make_unique<StreamWorkload>(seed);
  usage(("unknown workload " + name).c_str());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Run op i and its check; a throw counts as a failed op.
double run_checked(Workload& w, std::size_t i, Tally& tally, double& samples) {
  ++tally.attempted;
  try {
    const double t0 = now_s();
    w.run_op(i);
    const double dt = now_s() - t0;
    const OpCheck c = w.check_op(i);
    if (!c.ok) ++tally.failed;
    samples = c.samples;
    return dt;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
    ++tally.failed;
    samples = 0.0;
    return -1.0;
  }
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launching interpreter's
/// footprint does not leak into the figure.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Return freed heap to the kernel and restart VmHWM at the current RSS
/// (Linux ≥ 4.0; on older kernels the mark simply keeps its history).
void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// One set-up: the constructors plus one warm-up op (op 0); seconds.
double setup_once(Workload& w) {
  const double t0 = now_s();
  w.build();
  w.run_op(0);
  return now_s() - t0;
}

/// The set-up whose state the run then uses; its warm-up op is checked.
double first_setup(Workload& w, Tally& tally) {
  const double t = setup_once(w);
  ++tally.attempted;
  if (!w.check_op(0).ok) ++tally.failed;
  return t;
}

/// Per-op latency and simulated samples of one closed-loop phase.
struct Loop {
  std::vector<double> seconds;
  std::vector<double> samples;
  std::size_t next = 0;  ///< first op index not run

  /// Median over consecutive blocks of about `block_s` busy seconds of
  /// (block quantity ÷ block busy time); `per_op` picks the quantity. A
  /// median of short blocks shrugs off a neighbour's burst on a shared
  /// machine, which a whole-run mean would average in.
  template <class F>
  double block_rate(double block_s, F per_op) const {
    std::vector<double> rates;
    double busy = 0.0, amount = 0.0;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      busy += seconds[i];
      amount += per_op(i);
      if (busy >= block_s || (rates.empty() && i + 1 == seconds.size())) {
        rates.push_back(amount / busy);
        busy = amount = 0.0;
      }
    }
    return quantile(rates, 0.5);
  }
};

/// Closed loop from op `first` until `seconds` of loop time pass. `pause`
/// runs `pauses` times at even intervals of loop time; its own time does
/// not count towards `seconds`.
Loop timed_loop(Workload& w, std::size_t first, double seconds, Tally& tally,
                const std::function<void()>& pause = {}, std::size_t pauses = 0) {
  Loop loop;
  const double start = now_s();
  double paused = 0.0;
  std::size_t done = 0;
  const auto elapsed = [&] { return now_s() - start - paused; };
  std::size_t i = first;
  while (elapsed() < seconds) {
    double s = 0.0;
    const double dt = run_checked(w, i++, tally, s);
    if (dt >= 0.0) {
      loop.seconds.push_back(dt);
      loop.samples.push_back(s);
    }
    if (done < pauses &&
        elapsed() >= seconds * static_cast<double>(done + 1) / static_cast<double>(pauses + 1)) {
      const double p0 = now_s();
      pause();
      paused += now_s() - p0;
      ++done;
    }
  }
  for (; done < pauses; ++done) pause();
  loop.next = i;
  return loop;
}

constexpr double kBlockSeconds = 0.5;
constexpr std::size_t kRssOps = 8;  ///< untimed ops after the peak-RSS restart
constexpr std::size_t kSetups = 15;  ///< set-ups whose median is setup_s

std::vector<Metric> end_to_end(Workload& w, const Args& a, Tally& tally) {
  // Set-up is repeated on a spare instance at even intervals through the
  // loop, so its median sees the same mix of machine states as the ops.
  std::vector<double> setups{first_setup(w, tally)};
  auto spare = make_workload(a.workload, a.seed);
  const Loop loop = timed_loop(
      w, 1, a.seconds, tally, [&] { setups.push_back(setup_once(*spare)); }, kSetups - 1);
  const double setup = quantile(setups, 0.5);
  // peak_rss_mb is the workload's own footprint: whether the spare's
  // set-ups reused heap or took fresh pages must not move it.
  spare.reset();
  restart_peak_rss();
  // Untimed: complete the ops delivery_ratio is defined over, and give the
  // restarted high-water mark a few ops to see.
  double ignored = 0.0;
  const std::size_t end = std::max(w.min_ops(), loop.next + kRssOps);
  for (std::size_t i = loop.next; i < end; ++i) run_checked(w, i, tally, ignored);
  const double rss = peak_rss_mb();
  tally.failed += w.verify_end();

  std::vector<double> ms;
  for (const double t : loop.seconds) ms.push_back(t * 1e3);
  const double fs = w.sample_rate_hz();
  std::printf("ops timed: %zu\n", ms.size());
  return {
      {"setup_s", setup, "s"},
      {"ops_per_s", loop.block_rate(kBlockSeconds, [](std::size_t) { return 1.0; }), "1/s"},
      {"op_ms_p50", quantile(ms, 0.5), "ms"},
      {"op_ms_p90", quantile(ms, 0.9), "ms"},
      {"rt_factor",
       loop.block_rate(kBlockSeconds, [&](std::size_t i) { return loop.samples[i] / fs; }),
       "ratio"},
      {"delivery_ratio", w.delivery_ratio(), "ratio"},
      {"peak_rss_mb", rss, "MB"},
  };
}

std::vector<Metric> per_layer(Workload& w, const Args& a, Tally& tally) {
  (void)first_setup(w, tally);
  // Untraced reference for the tracing overhead.
  const Loop untraced = timed_loop(w, 1, a.seconds * 0.3, tally);
  double busy = 0.0;
  for (const double t : untraced.seconds) busy += t;
  const double untraced_ops_per_s = ratio(static_cast<double>(untraced.seconds.size()), busy);

  Tracer t;
  LayerCounts counts;
  w.trace_build(t);
  w.prepare_trace();
  std::size_t ops = 0;
  double traced_busy = 0.0;
  const double deadline = now_s() + a.seconds * 0.7;
  while (ops == 0 || now_s() < deadline) {
    t.op = ops;
    ++tally.attempted;
    try {
      const double t0 = now_s();
      bool agree = true;
      {
        const Scope root(t, "op", -1, false);
        agree = w.traced_op(ops, t, root.id(), counts);
      }
      traced_busy += now_s() - t0;
      if (!w.check_op(ops).ok || !agree) ++tally.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "traced op %zu threw: %s\n", ops, e.what());
      ++tally.failed;
    }
    ++ops;
  }
  if (!a.trace_out.empty()) t.write(a.trace_out);

  const auto agg = t.aggregate();
  const auto total = [&](const char* name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.total;
  };
  const auto count = [&](const char* name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto mean_ms = [&](const char* name) { return ratio(total(name), count(name)) * 1e3; };
  const double n_ops = static_cast<double>(ops);
  const double synth_n = count("rfsim.synth");
  const double windows = counts.rx_windows;
  const auto per_synth_ms = [&](const char* name) { return ratio(total(name), synth_n) * 1e3; };
  const auto per_window_ms = [&](const char* name) { return ratio(total(name), windows) * 1e3; };
  const auto self_ms = [&](const char* layer) { return ratio(t.layer_self(layer), n_ops) * 1e3; };
  const double transmit_self = agg.count("core.transmit") ? agg.at("core.transmit").self : 0.0;
  const double round_1w = total("net.round");
  const double round_2w = total("aux.round_2w");
  const double build = count("core.build") > 0 ? mean_ms("core.build") : mean_ms("rx.build");

  std::printf("traced ops: %zu (untraced reference: %zu)\n", ops, untraced.seconds.size());
  return {
      {"phy.spread_us", ratio(total("phy.spread"), count("phy.spread")) * 1e6, "us"},
      {"rfsim.synth_ms", mean_ms("rfsim.synth"), "ms"},
      {"rfsim.synth_ns_per_sample", ratio(total("rfsim.synth"), counts.synth_samples) * 1e9,
       "ns/sample"},
      {"rfsim.tag_paths_ms", per_synth_ms("rfsim.tag_paths"), "ms"},
      {"rfsim.noise_ms", per_synth_ms("rfsim.noise"), "ms"},
      {"rfsim.interferers_ms", per_synth_ms("rfsim.interferers"), "ms"},
      {"rfsim.envelope_ms", per_synth_ms("rfsim.envelope"), "ms"},
      {"rx.process_ms", mean_ms("rx.process"), "ms"},
      {"rx.frame_sync_ms", per_window_ms("rx.frame_sync"), "ms"},
      {"rx.detect_ms", per_window_ms("rx.detect"), "ms"},
      {"rx.decode_ms", per_window_ms("rx.decode"), "ms"},
      {"rx.sync_triggers_per_op", ratio(counts.triggers, n_ops), "count"},
      {"rx.detect_yield", ratio(counts.decoded, counts.detected), "ratio"},
      {"rx.feed_ns_per_sample", ratio(total("rx.feed"), counts.fed_samples) * 1e9,
       "ns/sample"},
      {"rx.resident_kb", counts.resident_bytes / 1024.0, "KiB"},
      {"core.transmit_ms", mean_ms("core.transmit"), "ms"},
      {"core.build_ms", build, "ms"},
      {"core.unattributed_share", ratio(transmit_self, total("core.transmit")), "ratio"},
      {"net.round_ms", mean_ms("net.round"), "ms"},
      {"net.roam_ms", mean_ms("net.roam"), "ms"},
      {"net.cell_round_ms", mean_ms("net.cell_round"), "ms"},
      {"net.cell_imbalance", ratio(counts.imbalance_sum, n_ops), "ratio"},
      {"net.rebuilds_per_round", ratio(counts.rebuilds, n_ops), "count"},
      {"net.speedup_2w", ratio(round_1w, round_2w), "ratio"},
      {"net.idle_share_2w",
       round_2w > 0.0 ? 1.0 - total("net.cell_round") / (2.0 * round_2w) : 0.0, "ratio"},
      {"phy.self_ms", self_ms("phy"), "ms"},
      {"rfsim.self_ms", self_ms("rfsim"), "ms"},
      {"rx.self_ms", self_ms("rx"), "ms"},
      {"core.self_ms", self_ms("core"), "ms"},
      {"net.self_ms", self_ms("net"), "ms"},
      {"trace.ops_ratio", ratio(ratio(n_ops, traced_busy), untraced_ops_per_s), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const double t0 = now_s();
    auto workload = make_workload(args.workload, args.seed);
    if (args.corrupt) workload->corrupt_expected();
    std::printf("workload %s seed %llu: inputs generated in %.3f s\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                now_s() - t0);

    Tally tally;
    const auto metrics = args.trace ? per_layer(*workload, args, tally)
                                    : end_to_end(*workload, args, tally);
    std::string json = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& m = metrics[i];
      std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      char item[160];
      std::snprintf(item, sizeof item, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
      json += item;
    }
    json += "}";
    std::printf("failed ops: %zu / %zu\n", tally.failed, tally.attempted);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
                json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfgate: %s\n", e.what());
    return 1;
  }
}
