#include "util/profiler.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "util/env_switch.h"
#include "util/parallel.h"

namespace cbma::profiler {

namespace {

/// One caller-path node. Children form a singly-linked list off the
/// parent (new children prepend); sibling lists are short — the span
/// vocabulary bounds the fan-out — so the linear scan beats any hashing.
struct Node {
  telemetry::Span span = telemetry::Span::kTransmitTotal;
  std::int32_t parent = -1;
  std::int32_t first_child = -1;
  std::int32_t next_sibling = -1;
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t child_ns = 0;
  /// Structural replica of a parallel_for caller path: records no time of
  /// its own, and child exits must not fold into it (its inclusive time
  /// stays 0, so folding would drive exclusive time negative).
  bool context = false;
};

struct ThreadSink {
  std::vector<Node> pool;            ///< reserved to kNodeCapacity once
  std::vector<std::int32_t> roots;   ///< top-level nodes on this thread
  std::int32_t current = -1;         ///< innermost live span (-1 = none)
  std::size_t skip_depth = 0;        ///< live spans beyond pool capacity
  std::uint64_t dropped = 0;

  void clear() {
    pool.clear();
    roots.clear();
    current = -1;
    skip_depth = 0;
    dropped = 0;
  }
};

/// Owns every sink for the life of the process (same pattern as the
/// telemetry registry): a worker thread exiting leaves its tree
/// aggregatable, and the thread_local below stays a plain pointer.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  ThreadSink* acquire() {
    const std::lock_guard<std::mutex> lock(mu_);
    auto sink = std::make_unique<ThreadSink>();
    sink->pool.reserve(kNodeCapacity);
    sinks_.push_back(std::move(sink));
    return sinks_.back().get();
  }

  template <typename F>
  void for_each(F&& f) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sinks_) f(*s);
  }

  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mu_);
    return sinks_.size();
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
};

thread_local ThreadSink* t_sink = nullptr;

ThreadSink& sink() {
  if (t_sink == nullptr) t_sink = Registry::instance().acquire();
  return *t_sink;
}

util::EnvSwitch& profiler_switch() {
  static util::EnvSwitch s("CBMA_PROFILE");
  return s;
}

/// Descend into (or create) the child of `current` for span `s`. Returns
/// false when the pool is exhausted (the caller bumps skip_depth).
bool push(ThreadSink& sk, telemetry::Span s, bool context) {
  std::int32_t found = -1;
  if (sk.current < 0) {
    for (const std::int32_t r : sk.roots) {
      if (sk.pool[static_cast<std::size_t>(r)].span == s) {
        found = r;
        break;
      }
    }
  } else {
    for (std::int32_t i =
             sk.pool[static_cast<std::size_t>(sk.current)].first_child;
         i >= 0;
         i = sk.pool[static_cast<std::size_t>(i)].next_sibling) {
      if (sk.pool[static_cast<std::size_t>(i)].span == s) {
        found = i;
        break;
      }
    }
  }
  if (found < 0) {
    if (sk.pool.size() >= kNodeCapacity) return false;
    Node n;
    n.span = s;
    n.parent = sk.current;
    n.context = context;
    const auto idx = static_cast<std::int32_t>(sk.pool.size());
    if (sk.current < 0) {
      sk.roots.push_back(idx);
    } else {
      auto& parent = sk.pool[static_cast<std::size_t>(sk.current)];
      n.next_sibling = parent.first_child;
      parent.first_child = idx;
    }
    sk.pool.push_back(n);
    found = idx;
  } else if (!context) {
    // A real span re-entering a node first created as context claims it:
    // the node now records time, so child folding must apply to it.
    sk.pool[static_cast<std::size_t>(found)].context = false;
  }
  sk.current = found;
  return true;
}

void pop(ThreadSink& sk, std::uint64_t dur_ns, bool context) {
  if (sk.skip_depth > 0) {
    --sk.skip_depth;
    return;
  }
  if (sk.current < 0) return;  // unbalanced exit — defensive, never expected
  auto& node = sk.pool[static_cast<std::size_t>(sk.current)];
  if (!context) {
    ++node.count;
    node.incl_ns += dur_ns;
  }
  sk.current = node.parent;
  if (!context && node.parent >= 0) {
    auto& parent = sk.pool[static_cast<std::size_t>(node.parent)];
    if (!parent.context) parent.child_ns += dur_ns;
  }
}

void merge_children(std::map<int, MergedNode>& dst, const ThreadSink& sk,
                    std::int32_t first) {
  for (std::int32_t i = first; i >= 0;
       i = sk.pool[static_cast<std::size_t>(i)].next_sibling) {
    const Node& n = sk.pool[static_cast<std::size_t>(i)];
    auto& m = dst[static_cast<int>(n.span)];
    m.span = n.span;
    m.count += n.count;
    m.incl_ns += n.incl_ns;
    m.child_ns += n.child_ns;
    std::map<int, MergedNode> kids;
    for (auto& existing : m.children) {
      kids.emplace(static_cast<int>(existing.span), std::move(existing));
    }
    merge_children(kids, sk, n.first_child);
    m.children.clear();
    m.children.reserve(kids.size());
    for (auto& [id, child] : kids) m.children.push_back(std::move(child));
  }
}

}  // namespace

bool enabled() { return profiler_switch().on(); }
void set_enabled(bool on) { profiler_switch().set_on(on); }

std::string export_path() { return profiler_switch().path(); }
void set_export_path(std::string path) {
  profiler_switch().set_path(std::move(path));
}

void on_span_enter(telemetry::Span s) {
  auto& sk = sink();
  if (sk.skip_depth > 0 || !push(sk, s, /*context=*/false)) {
    ++sk.skip_depth;
    ++sk.dropped;
  }
}

void on_span_exit(telemetry::Span, std::uint64_t dur_ns) {
  pop(sink(), dur_ns, /*context=*/false);
}

std::vector<telemetry::Span> current_path() {
  std::vector<telemetry::Span> path;
  if (t_sink == nullptr) return path;
  const ThreadSink& sk = *t_sink;
  for (std::int32_t i = sk.current; i >= 0;
       i = sk.pool[static_cast<std::size_t>(i)].parent) {
    path.push_back(sk.pool[static_cast<std::size_t>(i)].span);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void enter_context(const std::vector<telemetry::Span>& path) {
  auto& sk = sink();
  for (const telemetry::Span s : path) {
    if (sk.skip_depth > 0 || !push(sk, s, /*context=*/true)) {
      ++sk.skip_depth;
      ++sk.dropped;
    }
  }
}

void exit_context(std::size_t depth) {
  if (t_sink == nullptr) return;
  for (std::size_t d = 0; d < depth; ++d) {
    pop(*t_sink, 0, /*context=*/true);
  }
}

namespace {

struct SiteAccum {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t busy_ns = 0;
  double worst_imbalance = 1.0;
  std::vector<std::uint64_t> worker_busy_ns;
  std::vector<std::uint64_t> worker_items;
};

struct SiteRegistry {
  std::mutex mu;
  std::map<std::string, SiteAccum> sites;
};

SiteRegistry& site_registry() {
  static SiteRegistry r;
  return r;
}

}  // namespace

void record_parallel(const char* site, const util::ParallelStats& stats) {
  if (!enabled() || !stats.collected) return;
  auto& reg = site_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& acc = reg.sites[site];
  ++acc.calls;
  acc.items += stats.items;
  acc.wall_ns += stats.wall_ns;
  if (acc.worker_busy_ns.size() < stats.worker_busy_ns.size()) {
    acc.worker_busy_ns.resize(stats.worker_busy_ns.size(), 0);
    acc.worker_items.resize(stats.worker_items.size(), 0);
  }
  for (std::size_t w = 0; w < stats.worker_busy_ns.size(); ++w) {
    acc.busy_ns += stats.worker_busy_ns[w];
    acc.worker_busy_ns[w] += stats.worker_busy_ns[w];
    acc.worker_items[w] += stats.worker_items[w];
  }
  acc.worst_imbalance = std::max(acc.worst_imbalance, stats.imbalance());
}

std::vector<ParallelSiteStats> parallel_stats() {
  std::vector<ParallelSiteStats> out;
  auto& reg = site_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  out.reserve(reg.sites.size());
  for (const auto& [site, acc] : reg.sites) {
    ParallelSiteStats s;
    s.site = site;
    s.calls = acc.calls;
    s.items = acc.items;
    s.wall_ns = acc.wall_ns;
    s.busy_ns = acc.busy_ns;
    s.worst_imbalance = acc.worst_imbalance;
    s.worker_busy_ns = acc.worker_busy_ns;
    s.worker_items = acc.worker_items;
    out.push_back(std::move(s));
  }
  return out;
}

TreeSnapshot merged_tree() {
  TreeSnapshot out;
  std::map<int, MergedNode> roots;
  Registry::instance().for_each([&](ThreadSink& sk) {
    if (sk.roots.empty() && sk.dropped == 0) return;
    ++out.threads;
    out.dropped += sk.dropped;
    for (const std::int32_t r : sk.roots) {
      // merge_children walks a sibling list; a root has no siblings here,
      // so hand it each root index individually.
      const Node& n = sk.pool[static_cast<std::size_t>(r)];
      auto& m = roots[static_cast<int>(n.span)];
      m.span = n.span;
      m.count += n.count;
      m.incl_ns += n.incl_ns;
      m.child_ns += n.child_ns;
      std::map<int, MergedNode> kids;
      for (auto& existing : m.children) {
        kids.emplace(static_cast<int>(existing.span), std::move(existing));
      }
      merge_children(kids, sk, n.first_child);
      m.children.clear();
      m.children.reserve(kids.size());
      for (auto& [id, child] : kids) m.children.push_back(std::move(child));
    }
  });
  out.roots.reserve(roots.size());
  for (auto& [id, node] : roots) out.roots.push_back(std::move(node));
  return out;
}

void reset() {
  Registry::instance().for_each([](ThreadSink& sk) { sk.clear(); });
  auto& reg = site_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites.clear();
}

std::size_t sink_count() { return Registry::instance().size(); }

}  // namespace cbma::profiler
