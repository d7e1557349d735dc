// The chip-rate split re/im hot loops of the receiver (DESIGN.md §9.2).
// Each kernel has one portable body, built once for the baseline ISA; none
// is chosen at runtime.
//
// Every kernel gives each output its own accumulation in a fixed order (the
// order documented per kernel below), never summing across outputs, and
// the translation unit is compiled with FP contraction off, so an output is
// the same double whatever the compiler vectorizes and whichever -march or
// FMA flags the rest of the build uses. tests/pn_simd_test.cpp pins every
// kernel bit for bit against the plain per-output loop.
#pragma once

#include <cstddef>

namespace cbma::pn::simd {

/// out[i] = x[i] + x[i+1] + … + x[i+spc−1] for i in [0, count), summed in
/// ascending j. `x` must expose count + spc − 1 readable elements, and
/// `out` must not overlap them (checked: std::invalid_argument) — the body
/// runs spc passes over `out`, which the compiler vectorizes only because
/// the two ranges are declared disjoint.
void fold_sums(const double* __restrict x, std::size_t count, std::size_t spc,
               double* __restrict out);

/// Chip-folded sliding dot products, one output per lag:
///   out[k] = Σ_c fold[k + c·spc] · tmpl[c],  k in [0, n_lags)
/// for both components (the detector's lag search, pn/correlation.h). Each
/// output sums from 0.0 in ascending c with a separate multiply and add —
/// the one-accumulator order — while four lags run interleaved so their add
/// chains overlap. `fold_*` must expose n_lags + (n_chips − 1)·spc readable
/// elements.
void folded_dots(const double* fold_re, const double* fold_im,
                 const double* tmpl, std::size_t n_chips, std::size_t spc,
                 std::size_t n_lags, double* out_re, double* out_im);

/// Template dot products of back-to-back periods, one output per period:
///   out[b] = Σ_k x[b·n + k] · tmpl[k],  k in [0, n), b in [0, count)
/// for both components (the decoder's per-bit correlations). Same per-output
/// order as folded_dots: from 0.0, ascending k, separate multiply and add.
/// `x_*` must expose count·n readable elements.
void period_dots(const double* x_re, const double* x_im, const double* tmpl,
                 std::size_t n, std::size_t count, double* out_re,
                 double* out_im);

}  // namespace cbma::pn::simd
