// Runs test bodies on each SIMD dispatch path (pn/simd.h), so a kernel's
// scalar and AVX2 variants are both held to the same expectations. On hosts
// without AVX2 the native path is the scalar one.
#pragma once

#include "pn/simd.h"

namespace cbma::pn::simd {

/// Pins the dispatch to one path for the test's scope, then re-enables CPU
/// detection (the process default) on exit.
class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) { set_force_scalar(force); }
  ~ForceScalarGuard() { set_force_scalar(false); }
};

/// Runs `body(scalar)` on the scalar path, then on the native one.
template <typename Body>
void on_both_paths(Body body) {
  for (const bool force : {true, false}) {
    const ForceScalarGuard guard(force);
    body(force);
  }
}

}  // namespace cbma::pn::simd
