// AVX2 kernel table. Compiled with -mavx2 and NOTHING else — in particular
// never -mfma: with FMA unavailable the compiler cannot contract the explicit
// _mm256_mul_pd/_mm256_add_pd pairs below, so every operation rounds exactly
// like its scalar-reference counterpart (kernels_scalar.cpp).
//
// Layout notes: Complex is std::complex<double>, interleaved [re, im], so a
// 256-bit vector holds two complex values. The recurring idioms:
//  * addsub(a, b) = [a0-b0, a1+b1, a2-b2, a3+b3] implements one complex
//    multiply-accumulate step with the same two products and one add/sub per
//    element as the scalar spec (IEEE a - b === a + (-b), and sign flips via
//    XOR are exact, so the bit patterns match).
// Vectorization is ACROSS outputs (each output keeps one sequential
// accumulator).
#include "dsp/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace itb::dsp::simd {
namespace {

using std::size_t;

inline const double* dptr(const Complex* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* dptr(Complex* p) { return reinterpret_cast<double*>(p); }

// Sign mask: negate imaginary (odd) lanes. XOR of the sign bit is an exact
// IEEE negation.
inline __m256d neg_odd_mask() {
  return _mm256_castsi256_pd(_mm256_set_epi64x(
      static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL), 0));
}

// [xr, xi] per complex -> [xi, xr].
inline __m256d swap_pairs(__m256d v) { return _mm256_permute_pd(v, 0x5); }

void correlate_real(const Complex* x, size_t nx, const Real* p, size_t np,
                    Complex* out) {
  const size_t n_out = nx - np + 1;
  size_t i = 0;
  for (; i + 4 <= n_out; i += 4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < np; ++k) {
      const __m256d pk = _mm256_set1_pd(p[k]);
      acc0 = _mm256_add_pd(acc0,
                           _mm256_mul_pd(_mm256_loadu_pd(dptr(x + i + k)), pk));
      acc1 = _mm256_add_pd(
          acc1, _mm256_mul_pd(_mm256_loadu_pd(dptr(x + i + k + 2)), pk));
    }
    _mm256_storeu_pd(dptr(out + i), acc0);
    _mm256_storeu_pd(dptr(out + i + 2), acc1);
  }
  for (; i < n_out; ++i) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (size_t k = 0; k < np; ++k) {
      const Real pk = p[k];
      ar += x[i + k].real() * pk;
      ai += x[i + k].imag() * pk;
    }
    out[i] = Complex(ar, ai);
  }
}

void despread_real(const Complex* chips, const Real* p, size_t np, size_t nsym,
                   Real divisor, Complex* out) {
  const __m256d div = _mm256_set1_pd(divisor);
  size_t s = 0;
  for (; s + 2 <= nsym; s += 2) {
    const double* b0 = dptr(chips + s * np);
    const double* b1 = dptr(chips + (s + 1) * np);
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = 0; k < np; ++k) {
      const __m256d pair = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(b0 + 2 * k)),
          _mm_loadu_pd(b1 + 2 * k), 1);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(pair, _mm256_set1_pd(p[k])));
    }
    _mm256_storeu_pd(dptr(out + s), _mm256_div_pd(acc, div));
  }
  for (; s < nsym; ++s) {
    const Complex* block = chips + s * np;
    Real ar = 0.0;
    Real ai = 0.0;
    for (size_t k = 0; k < np; ++k) {
      const Real pk = p[k];
      ar += block[k].real() * pk;
      ai += block[k].imag() * pk;
    }
    out[s] = Complex(ar / divisor, ai / divisor);
  }
}

void accum_scaled_conj(Complex* acc, const Complex* p, Complex s, size_t n) {
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  const __m256d mask = neg_odd_mask();
  size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const __m256d q = _mm256_xor_pd(_mm256_loadu_pd(dptr(p + j)), mask);
    const __m256d inc = _mm256_addsub_pd(_mm256_mul_pd(sr, q),
                                         _mm256_mul_pd(si, swap_pairs(q)));
    _mm256_storeu_pd(dptr(acc + j),
                     _mm256_add_pd(_mm256_loadu_pd(dptr(acc + j)), inc));
  }
  const Real sr_s = s.real();
  const Real si_s = s.imag();
  for (; j < n; ++j) {
    const Real pr = p[j].real();
    const Real npi = -p[j].imag();
    acc[j] = Complex(acc[j].real() + (sr_s * pr - si_s * npi),
                     acc[j].imag() + (sr_s * npi + si_s * pr));
  }
}

void fir_causal_complex(const Complex* x, size_t n, const Complex* taps,
                        size_t nt, Complex* y) {
  const size_t ramp = std::min(n, nt - 1);
  for (size_t i = 0; i < ramp; ++i) {
    const size_t kmax = std::min(nt, i + 1);
    Real ar = 0.0;
    Real ai = 0.0;
    for (size_t k = 0; k < kmax; ++k) {
      const Real tr = taps[k].real();
      const Real ti = taps[k].imag();
      const Real xr = x[i - k].real();
      const Real xi = x[i - k].imag();
      ar += tr * xr - ti * xi;
      ai += tr * xi + ti * xr;
    }
    y[i] = Complex(ar, ai);
  }
  size_t i = ramp;
  for (; i + 2 <= n; i += 2) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = 0; k < nt; ++k) {
      const __m256d tr = _mm256_set1_pd(taps[k].real());
      const __m256d ti = _mm256_set1_pd(taps[k].imag());
      const __m256d xv = _mm256_loadu_pd(dptr(x + (i - k)));
      // addsub([xr*tr, xi*tr], [xi*ti, xr*ti])
      //   = [tr*xr - ti*xi, tr*xi + ti*xr] per complex.
      acc = _mm256_add_pd(
          acc, _mm256_addsub_pd(_mm256_mul_pd(xv, tr),
                                _mm256_mul_pd(swap_pairs(xv), ti)));
    }
    _mm256_storeu_pd(dptr(y + i), acc);
  }
  for (; i < n; ++i) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (size_t k = 0; k < nt; ++k) {
      const Real tr = taps[k].real();
      const Real ti = taps[k].imag();
      const Real xr = x[i - k].real();
      const Real xi = x[i - k].imag();
      ar += tr * xr - ti * xi;
      ai += tr * xi + ti * xr;
    }
    y[i] = Complex(ar, ai);
  }
}

void iq_imbalance(Complex* v, Complex alpha, Complex beta, size_t n) {
  const __m256d ar = _mm256_set1_pd(alpha.real());
  const __m256d ai = _mm256_set1_pd(alpha.imag());
  const __m256d br = _mm256_set1_pd(beta.real());
  const __m256d bi = _mm256_set1_pd(beta.imag());
  const __m256d mask = neg_odd_mask();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d vv = _mm256_loadu_pd(dptr(v + i));
    const __m256d t1 = _mm256_addsub_pd(_mm256_mul_pd(ar, vv),
                                        _mm256_mul_pd(ai, swap_pairs(vv)));
    const __m256d q = _mm256_xor_pd(vv, mask);  // conj(v), exact
    const __m256d t2 = _mm256_addsub_pd(_mm256_mul_pd(br, q),
                                        _mm256_mul_pd(bi, swap_pairs(q)));
    _mm256_storeu_pd(dptr(v + i), _mm256_add_pd(t1, t2));
  }
  const Real ars = alpha.real(), ais = alpha.imag();
  const Real brs = beta.real(), bis = beta.imag();
  for (; i < n; ++i) {
    const Real vr = v[i].real();
    const Real vi = v[i].imag();
    const Real nvi = -vi;
    const Real t1r = ars * vr - ais * vi;
    const Real t1i = ars * vi + ais * vr;
    const Real t2r = brs * vr - bis * nvi;
    const Real t2i = brs * nvi + bis * vr;
    v[i] = Complex(t1r + t2r, t1i + t2i);
  }
}

void quantize_midrise(Complex* x, Real full_scale, Real step, size_t n) {
  double* d = dptr(x);
  const size_t nd = 2 * n;
  const __m256d lo = _mm256_set1_pd(-full_scale);
  const __m256d hi = _mm256_set1_pd(full_scale - step);
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d half = _mm256_set1_pd(0.5);
  size_t i = 0;
  for (; i + 4 <= nd; i += 4) {
    const __m256d v = _mm256_loadu_pd(d + i);
    const __m256d c = _mm256_min_pd(_mm256_max_pd(v, lo), hi);
    const __m256d q = _mm256_mul_pd(
        _mm256_add_pd(_mm256_floor_pd(_mm256_div_pd(c, vstep)), half), vstep);
    _mm256_storeu_pd(d + i, q);
  }
  const Real los = -full_scale;
  const Real his = full_scale - step;
  for (; i < nd; ++i) {
    const Real c = std::min(std::max(d[i], los), his);
    d[i] = (std::floor(c / step) + 0.5) * step;
  }
}

}  // namespace

const KernelTable* avx2_kernels() {
  static const KernelTable table = {
      correlate_real,     despread_real, accum_scaled_conj,
      fir_causal_complex, iq_imbalance,  quantize_midrise,
  };
  return &table;
}

}  // namespace itb::dsp::simd

#else  // !defined(__AVX2__)

namespace itb::dsp::simd {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace itb::dsp::simd

#endif
