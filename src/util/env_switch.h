// The one switch type behind every observability plane (DESIGN.md §7): a
// relaxed atomic on/off flag plus a mutex-guarded export path, both read
// once from one environment variable when the switch is constructed. Every
// CBMA_* observability variable follows the same rule: unset, empty or "0"
// means off with no path; any other value means on, and the value is the
// plane's export path. A switch may name further variables that turn it on
// by the same rule but never set its path (the span recorder's switch is
// armed by every export path that reads it). set_on()/set_path() override
// the environment at any time after that first read.
//
// on() is one relaxed load, so ScopedSpan's off path (telemetry::enabled())
// stays one relaxed load. Each plane owns its switch as a function-local
// static, which makes the first read lazy and thread-safe.
#pragma once

#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>

namespace cbma::util {

class EnvSwitch {
 public:
  /// `also_on_by`: further variables that also turn the switch on (never
  /// setting its path).
  explicit EnvSwitch(const char* env_var,
                     std::initializer_list<const char*> also_on_by = {}) {
    const char* e = std::getenv(env_var);
    bool on = is_on(e);
    if (on) path_ = e;
    for (const char* other : also_on_by) on = on || is_on(std::getenv(other));
    on_.store(on, std::memory_order_relaxed);
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::string path() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return path_;
  }
  void set_path(std::string path) {
    const std::lock_guard<std::mutex> lock(mu_);
    path_ = std::move(path);
  }

 private:
  static bool is_on(const char* e) {
    return e != nullptr && *e != '\0' && std::string(e) != "0";
  }

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::string path_;
};

}  // namespace cbma::util
