#include "core/probe_session.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <system_error>
#include <vector>

#include "util/atomic_file.h"

namespace cbma::core {

namespace {

constexpr char kMagic[8] = {'C', 'B', 'P', 'R', 'O', 'B', 'E', '1'};
constexpr std::size_t kRecordHeaderBytes = 8 + 4 + 4 + 8 + 4 + 4;

/// Explicit little-endian encoding: the dump is a cross-machine artifact,
/// so the writer pins the byte order instead of inheriting the host's.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Per-tag aggregate of the captured link-quality rows.
struct TagAggregate {
  std::size_t frames = 0;
  std::size_t decoded = 0;
  double snr_db = 0.0;
  double evm = 0.0;
  double soft_margin = 0.0;
  double margin_ratio = 0.0;
  double power_norm = 0.0;
  double correlation = 0.0;
};

void write_link_sample(util::JsonWriter& w, const probe::LinkQualitySample& s) {
  w.begin_object();
  w.key("seq").value(s.seq);
  w.key("point").value(s.point);
  w.key("tag").value(static_cast<std::uint64_t>(s.tag));
  w.key("detected").value(s.detected);
  w.key("decoded").value(s.decoded);
  w.key("snr_db").value(s.snr_db);
  w.key("evm").value(s.evm);
  w.key("soft_margin").value(s.soft_margin);
  w.key("margin_ratio").value(s.margin_ratio);
  w.key("power_norm").value(s.power_norm);
  w.key("correlation").value(s.correlation);
  w.end_object();
}

}  // namespace

void ProbeSession::write_json_section(util::JsonWriter& w,
                                      const telemetry::Snapshot& snap) {
  const probe::Capture& capture = snap.probe;

  // std::map keys the per-tag aggregates in ascending tag order, which
  // keeps the emitted section deterministic for identical captures.
  std::map<std::uint32_t, TagAggregate> tags;
  for (const auto& s : capture.link) {
    auto& agg = tags[s.tag];
    ++agg.frames;
    agg.decoded += s.decoded ? 1 : 0;
    agg.snr_db += s.snr_db;
    agg.evm += s.evm;
    agg.soft_margin += s.soft_margin;
    agg.margin_ratio += s.margin_ratio;
    agg.power_norm += s.power_norm;
    agg.correlation += s.correlation;
  }

  w.key("link_quality").begin_object();
  w.key("samples").value(static_cast<std::uint64_t>(capture.link.size()));
  w.key("dropped").value(static_cast<std::uint64_t>(capture.dropped_link));
  w.key("tags").begin_array();
  for (const auto& [tag, agg] : tags) {
    const auto n = static_cast<double>(agg.frames);
    w.begin_object();
    w.key("tag").value(static_cast<std::uint64_t>(tag));
    w.key("frames").value(static_cast<std::uint64_t>(agg.frames));
    w.key("decoded").value(static_cast<std::uint64_t>(agg.decoded));
    w.key("snr_db_mean").value(agg.snr_db / n);
    w.key("evm_mean").value(agg.evm / n);
    w.key("soft_margin_mean").value(agg.soft_margin / n);
    w.key("margin_ratio_mean").value(agg.margin_ratio / n);
    w.key("power_norm_mean").value(agg.power_norm / n);
    w.key("correlation_mean").value(agg.correlation / n);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool ProbeSession::write_dump(const std::string& path,
                              const telemetry::Snapshot& snap) {
  const probe::Capture& capture = snap.probe;

  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create probe dump directory '%s': %s\n",
                   target.parent_path().string().c_str(), ec.message().c_str());
      return false;
    }
  }

  // Binary dump: magic + back-to-back records, assembled in memory first so
  // the manifest can carry exact byte offsets without a second file pass.
  std::string blob(kMagic, sizeof kMagic);
  std::vector<std::size_t> offsets;
  offsets.reserve(capture.taps.size());
  for (const auto& r : capture.taps) {
    offsets.push_back(blob.size());
    put_u64(blob, r.seq);
    put_u32(blob, static_cast<std::uint32_t>(r.tap));
    put_u32(blob, r.context);
    put_u64(blob, r.point);
    put_u32(blob, r.complex_iq ? 1u : 0u);
    put_u32(blob, static_cast<std::uint32_t>(r.data.size()));
    for (const double v : r.data) put_f64(blob, v);
  }

  if (!util::write_file_atomically(path, blob, "probe dump")) return false;

  util::JsonWriter w;
  w.begin_object();
  w.key("magic").value("CBPROBE1");
  w.key("schema_version").value(kProbeDumpSchemaVersion);
  w.key("dump").value(target.filename().string());
  w.key("dump_bytes").value(static_cast<std::uint64_t>(blob.size()));
  w.key("records").value(static_cast<std::uint64_t>(capture.taps.size()));
  w.key("dropped_taps").value(static_cast<std::uint64_t>(capture.dropped_taps));
  w.key("dropped_link").value(static_cast<std::uint64_t>(capture.dropped_link));
  w.key("taps").begin_array();
  for (std::size_t i = 0; i < capture.taps.size(); ++i) {
    const auto& r = capture.taps[i];
    w.begin_object();
    w.key("seq").value(r.seq);
    w.key("tap").value(probe::tap_name(r.tap));
    w.key("context").value(static_cast<std::uint64_t>(r.context));
    w.key("point").value(r.point);
    w.key("iq").value(r.complex_iq);
    w.key("doubles").value(static_cast<std::uint64_t>(r.data.size()));
    w.key("samples").value(static_cast<std::uint64_t>(
        r.complex_iq ? r.data.size() / 2 : r.data.size()));
    w.key("offset").value(static_cast<std::uint64_t>(offsets[i]));
    w.key("payload_offset")
        .value(static_cast<std::uint64_t>(offsets[i] + kRecordHeaderBytes));
    w.end_object();
  }
  w.end_array();
  w.key("link_quality").begin_array();
  for (const auto& s : capture.link) write_link_sample(w, s);
  w.end_array();
  w.end_object();

  return util::write_file_atomically(path + ".json", w.str() + "\n",
                                     "probe manifest");
}

}  // namespace cbma::core
