// The kernel bodies. This TU is compiled with -ffp-contract=off (see
// src/CMakeLists.txt), so no multiply-add here fuses into an FMA under any
// -march: the per-output order documented in simd.h is the whole of how an
// output rounds.
#include "pn/simd.h"

#include <algorithm>
#include <functional>

#include "util/expect.h"

namespace cbma::pn::simd {
namespace {

/// Whether [a, a + na) and [b, b + nb) share an element. std::less gives
/// the total pointer order that the built-in < lacks across arrays.
bool overlaps(const double* a, std::size_t na, const double* b,
              std::size_t nb) {
  const std::less<const double*> before;
  return na > 0 && nb > 0 && before(a, b + nb) && before(b, a + na);
}

/// out[j] = Σ_c x[j·out_stride + c·tap_stride] · t[c] for j in [0, n_out):
/// the one body of both dot kernels (DESIGN.md §9.2 says why it has no
/// AVX2 variant). Four outputs run interleaved so their add chains overlap
/// instead of each waiting on the previous add; every output still sums
/// from 0.0 in ascending c.
void strided_dots(const double* x_re, const double* x_im, const double* t,
                  std::size_t n_taps, std::size_t tap_stride, std::size_t n_out,
                  std::size_t out_stride, double* out_re, double* out_im) {
  std::size_t j = 0;
  for (; j + 4 <= n_out; j += 4) {
    const double* r0 = x_re + j * out_stride;
    const double* r1 = r0 + out_stride;
    const double* r2 = r1 + out_stride;
    const double* r3 = r2 + out_stride;
    const double* i0 = x_im + j * out_stride;
    const double* i1 = i0 + out_stride;
    const double* i2 = i1 + out_stride;
    const double* i3 = i2 + out_stride;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    for (std::size_t c = 0; c < n_taps; ++c) {
      const std::size_t x = c * tap_stride;
      const double tc = t[c];
      a0 += r0[x] * tc;
      a1 += r1[x] * tc;
      a2 += r2[x] * tc;
      a3 += r3[x] * tc;
      b0 += i0[x] * tc;
      b1 += i1[x] * tc;
      b2 += i2[x] * tc;
      b3 += i3[x] * tc;
    }
    out_re[j] = a0;
    out_re[j + 1] = a1;
    out_re[j + 2] = a2;
    out_re[j + 3] = a3;
    out_im[j] = b0;
    out_im[j + 1] = b1;
    out_im[j + 2] = b2;
    out_im[j + 3] = b3;
  }
  for (; j < n_out; ++j) {
    const double* r = x_re + j * out_stride;
    const double* i = x_im + j * out_stride;
    double a = 0.0;
    double b = 0.0;
    for (std::size_t c = 0; c < n_taps; ++c) {
      const std::size_t x = c * tap_stride;
      a += r[x] * t[c];
      b += i[x] * t[c];
    }
    out_re[j] = a;
    out_im[j] = b;
  }
}

}  // namespace

void fold_sums(const double* __restrict x, std::size_t count, std::size_t spc,
               double* __restrict out) {
  CBMA_REQUIRE(!overlaps(x, count + std::max<std::size_t>(spc, 1) - 1, out,
                         count),
               "fold_sums output overlaps its input");
  // Pass j adds x[i + j] to every output, so each output still sums in
  // ascending j; the passes are unit-stride and vectorize at the baseline
  // ISA.
  for (std::size_t i = 0; i < count; ++i) out[i] = x[i];
  for (std::size_t j = 1; j < spc; ++j) {
    for (std::size_t i = 0; i < count; ++i) out[i] += x[i + j];
  }
}

void folded_dots(const double* fold_re, const double* fold_im,
                 const double* tmpl, std::size_t n_chips, std::size_t spc,
                 std::size_t n_lags, double* out_re, double* out_im) {
  strided_dots(fold_re, fold_im, tmpl, n_chips, spc, n_lags, 1, out_re, out_im);
}

void period_dots(const double* x_re, const double* x_im, const double* tmpl,
                 std::size_t n, std::size_t count, double* out_re,
                 double* out_im) {
  strided_dots(x_re, x_im, tmpl, n, 1, count, n, out_re, out_im);
}

}  // namespace cbma::pn::simd
