#include "core/profile_plane.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace cbma::core {

namespace {

/// Depth-first flatten of the merged tree into ";"-joined caller-path rows
/// (the collapsed-stack frame order: outermost first). Span names use "/"
/// internally, so ";" is an unambiguous frame separator.
void flatten(const telemetry::MergedNode& node, const std::string& prefix,
             std::vector<ProfilePlane::Row>& out) {
  ProfilePlane::Row row;
  row.path = prefix.empty()
                 ? std::string(telemetry::span_name(node.span))
                 : prefix + ";" + telemetry::span_name(node.span);
  row.count = node.count;
  row.incl_ns = node.incl_ns;
  row.excl_ns = node.excl_ns();
  for (const auto& child : node.children) flatten(child, row.path, out);
  out.push_back(std::move(row));
}

std::vector<ProfilePlane::Row> flatten_tree(
    const telemetry::TreeSnapshot& tree) {
  std::vector<ProfilePlane::Row> rows;
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

}  // namespace

void ProfilePlane::enable(std::string collapsed_path) {
  telemetry::set_profile_enabled(true);
  if (!collapsed_path.empty()) {
    telemetry::set_profile_path(std::move(collapsed_path));
  }
}

std::vector<ProfilePlane::Row> ProfilePlane::top_exclusive(
    const telemetry::TreeSnapshot& tree, std::size_t n) {
  std::vector<Row> rows = flatten_tree(tree);
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.excl_ns != b.excl_ns) return a.excl_ns > b.excl_ns;
    return a.path < b.path;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

void ProfilePlane::write_json_section(util::JsonWriter& w,
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

std::string ProfilePlane::collapsed(const telemetry::TreeSnapshot& tree) {
  std::vector<Row> rows = flatten_tree(tree);
  // Flamegraph semantics: a frame's own width is its exclusive time, so
  // zero-exclusive rows (pure pass-through parents, context anchors) are
  // implied by their children and add nothing.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.path < b.path; });
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
