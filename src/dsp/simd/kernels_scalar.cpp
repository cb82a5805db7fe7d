// Scalar reference kernels — this file IS the numeric specification.
//
// Every loop here is written as the exact IEEE-754 operation sequence the
// vector implementations must reproduce (see kernels.h). Keep the arithmetic
// shape stable: reordering an addition or fusing a multiply-add in this file
// is a silent break of the dispatch-invariance contract.
#include <algorithm>
#include <cmath>

#include "dsp/simd/kernels.h"

namespace itb::dsp::simd {
namespace ref {

void correlate_real(const Complex* x, std::size_t nx, const Real* p,
                    std::size_t np, Complex* out) {
  const std::size_t n_out = nx - np + 1;
  for (std::size_t i = 0; i < n_out; ++i) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      const Real pk = p[k];
      ar += x[i + k].real() * pk;
      ai += x[i + k].imag() * pk;
    }
    out[i] = Complex(ar, ai);
  }
}

void despread_real(const Complex* chips, const Real* p, std::size_t np,
                   std::size_t nsym, Real divisor, Complex* out) {
  for (std::size_t s = 0; s < nsym; ++s) {
    const Complex* block = chips + s * np;
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      const Real pk = p[k];
      ar += block[k].real() * pk;
      ai += block[k].imag() * pk;
    }
    out[s] = Complex(ar / divisor, ai / divisor);
  }
}

void accum_scaled_conj(Complex* acc, const Complex* p, Complex s,
                       std::size_t n) {
  const Real sr = s.real();
  const Real si = s.imag();
  for (std::size_t j = 0; j < n; ++j) {
    const Real pr = p[j].real();
    const Real npi = -p[j].imag();
    // Exactly std::complex s * conj(p), i.e. s * (pr, npi):
    // re = sr*pr - si*npi, im = sr*npi + si*pr.
    acc[j] = Complex(acc[j].real() + (sr * pr - si * npi),
                     acc[j].imag() + (sr * npi + si * pr));
  }
}

void fir_causal_complex(const Complex* x, std::size_t n, const Complex* taps,
                        std::size_t nt, Complex* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(nt, i + 1);
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < kmax; ++k) {
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

void iq_imbalance(Complex* v, Complex alpha, Complex beta, std::size_t n) {
  const Real ar = alpha.real();
  const Real ai = alpha.imag();
  const Real br = beta.real();
  const Real bi = beta.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const Real vr = v[i].real();
    const Real vi = v[i].imag();
    const Real nvi = -vi;
    // t1 = alpha * v, t2 = beta * conj(v), each via the std::complex
    // finite-math formula; result is t1 + t2.
    const Real t1r = ar * vr - ai * vi;
    const Real t1i = ar * vi + ai * vr;
    const Real t2r = br * vr - bi * nvi;
    const Real t2i = br * nvi + bi * vr;
    v[i] = Complex(t1r + t2r, t1i + t2i);
  }
}

void quantize_midrise(Complex* x, Real full_scale, Real step, std::size_t n) {
  Real* d = reinterpret_cast<Real*>(x);
  const Real lo = -full_scale;
  const Real hi = full_scale - step;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const Real c = std::min(std::max(d[i], lo), hi);
    d[i] = (std::floor(c / step) + 0.5) * step;
  }
}

}  // namespace ref

const KernelTable* scalar_kernels() {
  static const KernelTable table = {
      ref::correlate_real,     ref::despread_real, ref::accum_scaled_conj,
      ref::fir_causal_complex, ref::iq_imbalance,  ref::quantize_midrise,
  };
  return &table;
}

}  // namespace itb::dsp::simd
