// SIMD kernel variants + the dispatch switch. This TU is compiled with
// -ffp-contract=off (see src/CMakeLists.txt): the bit-exactness contract in
// simd.h relies on the scalar fallback not being contracted into FMAs,
// since the AVX2 variants deliberately use separate multiply and add so
// both paths round identically.
#include "pn/simd.h"

#include <atomic>
#include <cstdlib>

#if !defined(CBMA_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CBMA_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define CBMA_SIMD_HAVE_AVX2 0
#endif

namespace cbma::pn::simd {
namespace {

// -1 unresolved, 0 allow detection, 1 force scalar.
std::atomic<int>& force_scalar_state() {
  static std::atomic<int> state{-1};
  return state;
}

bool force_scalar_resolved() {
  auto& state = force_scalar_state();
  int v = state.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("CBMA_FORCE_SCALAR");
    const bool forced =
        env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
    v = forced ? 1 : 0;
    state.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

bool cpu_has_avx2() {
#if CBMA_SIMD_HAVE_AVX2
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

// --- scalar variants -------------------------------------------------------

void fold_sums_scalar(const double* x, std::size_t count, std::size_t spc,
                      double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    double s = x[i];
    for (std::size_t j = 1; j < spc; ++j) s += x[i + j];
    out[i] = s;
  }
}

/// out[j] = Σ_c x[j·out_stride + c·tap_stride] · t[c] for j in [0, n_out):
/// the one body of both dot kernels, on every dispatch path (simd.h says
/// why they have no AVX2 variant). Four outputs run interleaved so their
/// add chains overlap instead of each waiting on the previous add; every
/// output still sums from 0.0 in ascending c.
void strided_dots_scalar(const double* x_re, const double* x_im,
                         const double* t, std::size_t n_taps,
                         std::size_t tap_stride, std::size_t n_out,
                         std::size_t out_stride, double* out_re,
                         double* out_im) {
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

// --- AVX2 variants ---------------------------------------------------------
//
// Each vector lane is one output element; per-lane operation order matches
// the scalar variant exactly (same adds in the same order, no FMA), so the
// two paths are bit-identical — tests/pn_simd_test.cpp asserts it.

#if CBMA_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) void fold_sums_avx2(const double* x,
                                                    std::size_t count,
                                                    std::size_t spc,
                                                    double* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d acc = _mm256_loadu_pd(x + i);
    for (std::size_t j = 1; j < spc; ++j) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i + j));
    }
    _mm256_storeu_pd(out + i, acc);
  }
  if (i < count) fold_sums_scalar(x + i, count - i, spc, out + i);
}

#endif  // CBMA_SIMD_HAVE_AVX2

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
  }
  return "unknown";
}

Isa active_isa() {
  if (force_scalar_resolved()) return Isa::kScalar;
  return cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
}

void set_force_scalar(bool force) {
  force_scalar_state().store(force ? 1 : 0, std::memory_order_relaxed);
}

bool avx2_supported() { return cpu_has_avx2(); }

void fold_sums(const double* x, std::size_t count, std::size_t spc, double* out) {
#if CBMA_SIMD_HAVE_AVX2
  if (active_isa() == Isa::kAvx2) {
    fold_sums_avx2(x, count, spc, out);
    return;
  }
#endif
  fold_sums_scalar(x, count, spc, out);
}

void folded_dots(const double* fold_re, const double* fold_im,
                 const double* tmpl, std::size_t n_chips, std::size_t spc,
                 std::size_t n_lags, double* out_re, double* out_im) {
  strided_dots_scalar(fold_re, fold_im, tmpl, n_chips, spc, n_lags, 1, out_re,
                      out_im);
}

void period_dots(const double* x_re, const double* x_im, const double* tmpl,
                 std::size_t n, std::size_t count, double* out_re,
                 double* out_im) {
  strided_dots_scalar(x_re, x_im, tmpl, n, 1, count, n, out_re, out_im);
}

}  // namespace cbma::pn::simd
