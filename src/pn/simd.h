// Runtime-dispatched SIMD kernels for the chip-rate split re/im hot loops
// (DESIGN.md §9.2). fold_sums has one scalar and one AVX2 variant; the
// active one is chosen once per process from CPUID, the CBMA_FORCE_SCALAR
// environment variable, and the CBMA_FORCE_SCALAR compile definition.
// folded_dots and period_dots run one interleaved scalar body on every
// path: their AVX2 variants made a receiver op faster, but the host's slow
// spells then swung its rate so far between runs that the gate benchmark
// could no longer compare them.
//
// The dispatch contract is **bit-exactness**: both variants of every kernel
// produce bit-identical outputs. This is achievable (and tested, see
// tests/pn_simd_test.cpp) because every kernel here vectorizes across
// *independent output elements* — each output's floating-point accumulation
// order is the same in both variants, lanes never sum across each other,
// and the translation unit is compiled with FP contraction off so the
// scalar fallback cannot silently fuse into FMAs the vector path does not
// use. Bit-exactness is what lets the receiver keep its byte-identical
// bench/JSON guarantees regardless of which ISA the host dispatches to.
#pragma once

#include <cstddef>

namespace cbma::pn::simd {

enum class Isa {
  kScalar,
  kAvx2,
};

/// Stable label for logs and tests ("scalar", "avx2").
const char* isa_name(Isa isa);

/// The ISA the kernels below currently dispatch to. Resolved on first call
/// from compile flags, CPUID and CBMA_FORCE_SCALAR; overridable afterwards
/// with set_force_scalar().
Isa active_isa();

/// Test hook: true pins the scalar variants regardless of CPU support;
/// false re-enables CPU detection (still subject to the compile-time
/// CBMA_FORCE_SCALAR definition, which removes the AVX2 variants entirely).
void set_force_scalar(bool force);

/// Whether the AVX2 variants exist in this build and on this CPU (ignores
/// the force-scalar override — i.e. whether set_force_scalar(false) would
/// dispatch to AVX2).
bool avx2_supported();

/// out[i] = x[i] + x[i+1] + … + x[i+spc−1] for i in [0, count).
/// `x` must expose count + spc − 1 readable elements. Per-output summation
/// order is ascending j in both variants.
void fold_sums(const double* x, std::size_t count, std::size_t spc, double* out);

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
