// The PHY kernels, written once: kernels_scalar.cpp and kernels_avx2.cpp
// each build their KernelTable from this header (see kernels.h for the
// numeric specification and why the two tables agree bit for bit).
//
// Everything here has internal linkage and calls no inline std:: helper
// (Complex is read as interleaved doubles), so the -mavx2 TU emits no weak
// symbol the linker could pick for a baseline caller.
#pragma once

#include <cmath>

#include "dsp/simd/kernels.h"

namespace itb::dsp::simd {
namespace {

using std::size_t;

// Complex is std::complex<double>, which the standard lays out as an array
// of two doubles [re, im]: a span of n Complex is 2n interleaved doubles.
inline const Real* reals(const Complex* p) {
  return reinterpret_cast<const Real*>(p);
}
inline Real* reals(Complex* p) { return reinterpret_cast<Real*>(p); }

// Outputs [0, B) of a real-pattern correlation; x and out are interleaved,
// so lane j is the real (even j) or imaginary (odd j) part of output j/2.
template <size_t B>
void correlate_block(const Real* x, const Real* p, size_t np, Real* out) {
  Real acc[2 * B] = {};
  for (size_t k = 0; k < np; ++k) {
    const Real pk = p[k];
    for (size_t j = 0; j < 2 * B; ++j) acc[j] += x[2 * k + j] * pk;
  }
  for (size_t j = 0; j < 2 * B; ++j) out[j] = acc[j];
}

void correlate_real(const Complex* x, size_t nx, const Real* p, size_t np,
                    Complex* out) {
  // 16 outputs fill eight AVX2 accumulators; a shorter lane loop gets
  // unrolled away and the compiler vectorises the k loop instead.
  constexpr size_t kBlock = 16;
  const size_t n_out = nx - np + 1;
  const Real* xd = reals(x);
  Real* od = reals(out);
  size_t i = 0;
  for (; i + kBlock <= n_out; i += kBlock) {
    correlate_block<kBlock>(xd + 2 * i, p, np, od + 2 * i);
  }
  for (; i < n_out; ++i) correlate_block<1>(xd + 2 * i, p, np, od + 2 * i);
}

// Symbol s is the correlation at lag s * np, then one IEEE divide.
void despread_real(const Complex* chips, const Real* p, size_t np, size_t nsym,
                   Real divisor, Complex* out) {
  const Real* cd = reals(chips);
  Real* od = reals(out);
  for (size_t s = 0; s < nsym; ++s) {
    correlate_block<1>(cd + 2 * s * np, p, np, od + 2 * s);
    od[2 * s] = od[2 * s] / divisor;
    od[2 * s + 1] = od[2 * s + 1] / divisor;
  }
}

void accum_scaled_conj(Complex* acc, const Complex* p, Complex s, size_t n) {
  Real* a = reals(acc);
  const Real* pd = reals(p);
  const Real sr = reals(&s)[0];
  const Real si = reals(&s)[1];
  for (size_t j = 0; j < n; ++j) {
    const Real pr = pd[2 * j];
    const Real npi = -pd[2 * j + 1];
    a[2 * j] = a[2 * j] + (sr * pr - si * npi);
    a[2 * j + 1] = a[2 * j + 1] + (sr * npi + si * pr);
  }
}

void fir_causal_complex(const Complex* x, size_t n, const Complex* taps,
                        size_t nt, Complex* y) {
  // 256 outputs accumulate in a local array that stays in L1, one vaddsubpd
  // pass per tap; shorter strips pay the vector loop's prologue too often.
  constexpr size_t kStrip = 256;
  const Real* xd = reals(x);
  const Real* td = reals(taps);
  Real* yd = reals(y);
  for (size_t i0 = 0; i0 < n; i0 += kStrip) {
    const size_t m = n - i0 < kStrip ? n - i0 : kStrip;
    Real acc[2 * kStrip] = {};
    for (size_t k = 0; k < nt; ++k) {
      const Real tr = td[2 * k];
      const Real ti = td[2 * k + 1];
      // Output i sees tap k only once i >= k (the ramp-in).
      for (size_t b = k > i0 ? k - i0 : 0; b < m; ++b) {
        const Real xr = xd[2 * (i0 + b - k)];
        const Real xi = xd[2 * (i0 + b - k) + 1];
        acc[2 * b] += tr * xr - ti * xi;
        acc[2 * b + 1] += tr * xi + ti * xr;
      }
    }
    for (size_t j = 0; j < 2 * m; ++j) yd[2 * i0 + j] = acc[j];
  }
}

void iq_imbalance(Complex* v, Complex alpha, Complex beta, size_t n) {
  Real* d = reals(v);
  const Real ar = reals(&alpha)[0];
  const Real ai = reals(&alpha)[1];
  const Real br = reals(&beta)[0];
  const Real bi = reals(&beta)[1];
  for (size_t i = 0; i < n; ++i) {
    const Real vr = d[2 * i];
    const Real vi = d[2 * i + 1];
    const Real nvi = -vi;
    const Real t1r = ar * vr - ai * vi;
    const Real t1i = ar * vi + ai * vr;
    const Real t2r = br * vr - bi * nvi;
    const Real t2i = br * nvi + bi * vr;
    d[2 * i] = t1r + t2r;
    d[2 * i + 1] = t1i + t2i;
  }
}

void quantize_midrise(Complex* x, Real full_scale, Real step, size_t n) {
  Real* d = reals(x);
  const Real lo = -full_scale;
  const Real hi = full_scale - step;
  for (size_t i = 0; i < 2 * n; ++i) {
    const Real m = d[i] < lo ? lo : d[i];
    const Real c = hi < m ? hi : m;
    d[i] = (std::floor(c / step) + 0.5) * step;
  }
}

constexpr KernelTable kSpecTable = {
    correlate_real,     despread_real, accum_scaled_conj,
    fir_causal_complex, iq_imbalance,  quantize_midrise,
};

}  // namespace
}  // namespace itb::dsp::simd
