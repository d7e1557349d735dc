#include "core/observability.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <system_error>

#include "rx/receiver.h"
#include "util/atomic_file.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/probe.h"
#include "util/trace_export.h"

namespace cbma::core {

namespace {

// --- telemetry: the "telemetry" section ------------------------------------

/// Per-span ns statistics, non-zero counters, thread count, and the flight
/// recorder — the frame log — with human-readable DecodeOutcome labels (the
/// upper layers' vocabulary, which util/telemetry cannot speak).
void write_telemetry_section(util::JsonWriter& w,
                             const telemetry::Snapshot& snap) {
  w.key("telemetry").begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(snap.threads));

  w.key("spans").begin_array();
  for (const auto& s : snap.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("count").value(s.count);
    w.key("total_ns").value(s.total_ns);
    w.key("min_ns").value(s.min_ns);
    w.key("max_ns").value(s.max_ns);
    w.key("mean_ns").value(s.mean_ns);
    w.key("p50_ns").value(s.p50_ns);
    w.key("p90_ns").value(s.p90_ns);
    w.key("p99_ns").value(s.p99_ns);
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const auto& c : snap.counters) w.key(c.name).value(c.value);
  w.end_object();

  w.key("flight_recorder").begin_array();
  for (const auto& f : snap.frames) {
    w.begin_object();
    w.key("seq").value(f.seq);
    w.key("ts_ns").value(f.ts_ns);
    w.key("tag").value(static_cast<std::uint64_t>(f.tag));
    w.key("code_length").value(static_cast<std::uint64_t>(f.code_length));
    w.key("correlation").value(f.correlation);
    w.key("margin").value(f.margin);
    w.key("cfo_hz").value(f.cfo_hz);
    w.key("power_dbm").value(f.power_dbm);
    w.key("impedance_level")
        .value(static_cast<std::uint64_t>(f.impedance_level));
    w.key("outcome").value(
        rx::to_string(static_cast<rx::DecodeOutcome>(f.outcome)));
    w.key("impairment_gates")
        .value(static_cast<std::uint64_t>(f.impairment_gates));
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

bool write_trace(const std::string& path, const telemetry::Snapshot& snap) {
  return util::write_chrome_trace(path, snap.events, snap.frames);
}

// --- probe: the "link_quality" section and the CBPROBE1 dump ---------------

/// Sample/drop totals plus per-tag aggregates (frames, decoded, and the
/// mean of every link-quality field) over the link rows: the frame log's
/// rows with a valid report. `dropped` counts the rows the log lost.
void write_link_quality_section(util::JsonWriter& w,
                                const telemetry::Snapshot& snap) {
  // std::map keys the per-tag rollups (and decoded counts) in ascending tag
  // order, which keeps the emitted section deterministic for identical
  // captures.
  std::map<std::uint32_t, std::pair<util::LinkQualityRollup, std::uint64_t>>
      tags;
  std::uint64_t samples = 0;
  for (const auto& f : snap.frames) {
    if (!f.has_quality) continue;
    auto& [rollup, decoded] = tags[f.tag];
    rollup.add(f.quality);
    decoded += f.decoded ? 1 : 0;
    ++samples;
  }

  w.key("link_quality").begin_object();
  w.key("samples").value(samples);
  w.key("dropped").value(static_cast<std::uint64_t>(snap.dropped_frames));
  w.key("tags").begin_array();
  for (const auto& [tag, entry] : tags) {
    const auto& [rollup, decoded] = entry;
    w.begin_object();
    w.key("tag").value(static_cast<std::uint64_t>(tag));
    w.key("frames").value(static_cast<std::uint64_t>(rollup.frames));
    w.key("decoded").value(decoded);
    const util::LinkQuality mean = rollup.mean();
    for (const auto& [name, field] : util::kLinkQualityFields) {
      w.key(std::string(name) + "_mean").value(mean.*field);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// Dump format (schema_version 1, all integers/doubles little-endian):
//   file  = "CBPROBE1" then records back-to-back
//   record = u64 seq | u32 tap | u32 context | u64 point | u32 iq(0/1)
//            | u32 n_doubles | n_doubles × f64
// Complex records interleave re/im (n_doubles = 2 × samples). The manifest
// repeats every record header with its byte offset, so a reader never has
// to trust the binary's own framing — the cross-check IS the validation.
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

void write_link_sample(util::JsonWriter& w, const telemetry::FrameRow& f) {
  w.begin_object();
  w.key("seq").value(f.seq);
  w.key("point").value(f.point);
  w.key("tag").value(static_cast<std::uint64_t>(f.tag));
  w.key("detected").value(true);  // a row is a detected tag's valid report
  w.key("decoded").value(f.decoded);
  for (const auto& [name, field] : util::kLinkQualityFields) {
    w.key(name).value(f.quality.*field);
  }
  w.end_object();
}

// --- metrics: the "timeseries" + "events" sections and the Prometheus file -

void write_timeseries_section(util::JsonWriter& w,
                              const telemetry::Snapshot& snap) {
  const metrics::Store& store = snap.metrics;

  w.key("timeseries").begin_object();
  w.key("windows").value(store.windows);
  w.key("window_capacity")
      .value(static_cast<std::uint64_t>(metrics::kWindowCapacity));
  w.key("dropped").begin_object();
  w.key("points").value(store.dropped_points);
  w.key("series").value(store.dropped_series);
  w.key("events").value(store.dropped_events);
  w.end_object();
  w.key("series").begin_array();
  for (const auto& series : store.series) {
    w.begin_object();
    w.key("name").value(series.name);
    w.key("scope").value(series.scope);
    if (!series.unit.empty()) w.key("unit").value(series.unit);
    w.key("points").begin_array();
    for (const auto& p : series.points) {
      w.begin_array();
      w.value(p.window);
      w.value(p.value);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("events").begin_array();
  for (const auto& e : store.events) {
    w.begin_object();
    w.key("seq").value(e.seq);
    w.key("window").value(e.window);
    w.key("severity").value(metrics::severity_name(e.severity));
    w.key("type").value(e.type);
    if (!e.scope.empty()) w.key("scope").value(e.scope);
    w.key("value").value(e.value);
    if (!e.detail.empty()) w.key("detail").value(e.detail);
    w.end_object();
  }
  w.end_array();
}

bool write_prometheus(const std::string& path,
                      const telemetry::Snapshot& snap) {
  return metrics::write_prometheus(path, snap.metrics);
}

// --- profile: the "profile" section and the collapsed stacks ---------------

/// Depth-first flatten of the merged tree into ";"-joined caller-path rows
/// (the collapsed-stack frame order: outermost first). Span names use "/"
/// internally, so ";" is an unambiguous frame separator.
void flatten(const telemetry::MergedNode& node, const std::string& prefix,
             std::vector<ProfileRow>& out) {
  ProfileRow row;
  row.path = prefix.empty()
                 ? std::string(telemetry::span_name(node.span))
                 : prefix + ";" + telemetry::span_name(node.span);
  row.count = node.count;
  row.incl_ns = node.incl_ns;
  row.excl_ns = node.excl_ns();
  for (const auto& child : node.children) flatten(child, row.path, out);
  out.push_back(std::move(row));
}

std::vector<ProfileRow> flatten_tree(const telemetry::TreeSnapshot& tree) {
  std::vector<ProfileRow> rows;
  for (const auto& root : tree.roots) flatten(root, "", rows);
  return rows;
}

void write_node(util::JsonWriter& w, const telemetry::MergedNode& node) {
  w.begin_object();
  w.key("span").value(telemetry::span_name(node.span));
  w.key("count").value(node.count);
  w.key("incl_ns").value(node.incl_ns);
  w.key("excl_ns").value(node.excl_ns());
  w.key("child_ns").value(node.child_ns);
  w.key("children").begin_array();
  for (const auto& child : node.children) write_node(w, child);
  w.end_array();
  w.end_object();
}

/// The attribution tree (count / inclusive / exclusive / same-thread child
/// time per caller path) plus the parallel_for worker-utilization reports
/// ("sweep/run", "net/round") with per-slot busy time, item counts and the
/// imbalance ratio.
void write_profile_section(util::JsonWriter& w,
                           const telemetry::Snapshot& snap) {
  w.key("profile").begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(snap.tree.threads));
  w.key("dropped").value(snap.tree.dropped);
  w.key("tree").begin_array();
  for (const auto& root : snap.tree.roots) write_node(w, root);
  w.end_array();
  w.key("parallel").begin_array();
  for (const auto& site : snap.parallel) {
    w.begin_object();
    w.key("site").value(site.site);
    w.key("calls").value(site.calls);
    w.key("items").value(site.items);
    w.key("wall_ns").value(site.wall_ns);
    w.key("busy_ns").value(site.busy_ns);
    w.key("imbalance").value(site.worst_imbalance);
    w.key("workers").begin_array();
    for (std::size_t slot = 0; slot < site.worker_busy_ns.size(); ++slot) {
      w.begin_object();
      w.key("busy_ns").value(site.worker_busy_ns[slot]);
      w.key("items").value(slot < site.worker_items.size()
                               ? site.worker_items[slot]
                               : 0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool write_collapsed(const std::string& path,
                     const telemetry::Snapshot& snap) {
  return util::write_file_atomically(path, collapsed(snap.tree), "profile");
}

}  // namespace

const std::array<ObservabilityPlane, 4>& observability_planes() {
  static const std::array<ObservabilityPlane, 4> planes{{
      {"telemetry", telemetry::enabled, write_telemetry_section,
       telemetry::trace_path, write_trace},
      {"probe", probe::enabled, write_link_quality_section, probe::dump_path,
       write_probe_dump},
      {"metrics", metrics::enabled, write_timeseries_section,
       metrics::export_path, write_prometheus},
      {"profile", telemetry::enabled, write_profile_section,
       telemetry::profile_path, write_collapsed},
  }};
  return planes;
}

bool write_observability_artifacts(const telemetry::Snapshot& snap) {
  for (const auto& plane : observability_planes()) {
    if (!plane.enabled()) continue;
    const std::string path = plane.artifact_path();
    if (!path.empty() && !plane.write_artifact(path, snap)) return false;
  }
  return true;
}

bool write_probe_dump(const std::string& path,
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
  w.key("dropped_link").value(static_cast<std::uint64_t>(snap.dropped_frames));
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
  for (const auto& f : snap.frames) {
    if (f.has_quality) write_link_sample(w, f);
  }
  w.end_array();
  w.end_object();

  return util::write_file_atomically(path + ".json", w.str() + "\n",
                                     "probe manifest");
}

std::vector<ProfileRow> top_exclusive(const telemetry::TreeSnapshot& tree,
                                      std::size_t n) {
  std::vector<ProfileRow> rows = flatten_tree(tree);
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              if (a.excl_ns != b.excl_ns) return a.excl_ns > b.excl_ns;
              return a.path < b.path;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::string collapsed(const telemetry::TreeSnapshot& tree) {
  std::vector<ProfileRow> rows = flatten_tree(tree);
  // Flamegraph semantics: a frame's own width is its exclusive time, so
  // zero-exclusive rows (pure pass-through parents, context anchors) are
  // implied by their children and add nothing.
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              return a.path < b.path;
            });
  std::string out;
  char buf[32];
  for (const auto& row : rows) {
    if (row.excl_ns == 0) continue;
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(row.excl_ns));
    out += row.path;
    out += buf;
  }
  return out;
}

}  // namespace cbma::core
