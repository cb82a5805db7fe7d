#include "dsp/correlate.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "dsp/simd/kernels.h"

namespace itb::dsp {

CVec cross_correlate(std::span<const Complex> x, std::span<const Complex> pattern) {
  if (x.size() < pattern.size() || pattern.empty()) return {};
  CVec out(x.size() - pattern.size() + 1);
  // Purely real patterns (Barker, chip sequences) halve the multiply count:
  // x * conj(p) degenerates to x * p.real().
  bool real_pattern = true;
  for (const Complex& p : pattern) {
    if (p.imag() != 0.0) {
      real_pattern = false;
      break;
    }
  }
  if (real_pattern) {
    thread_local std::vector<Real> preal;
    preal.resize(pattern.size());
    for (std::size_t k = 0; k < pattern.size(); ++k) preal[k] = pattern[k].real();
    simd::active_kernels().correlate_real(x.data(), x.size(), preal.data(),
                                          pattern.size(), out.data());
    return out;
  }
  // x * conj(p) with explicit real arithmetic (finite operands, so the
  // std::complex inf/NaN multiply fixup is dead weight).
  const std::size_t np = pattern.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      const Real xr = x[i + k].real();
      const Real xi = x[i + k].imag();
      const Real pr = pattern[k].real();
      const Real pi = pattern[k].imag();
      ar += xr * pr + xi * pi;
      ai += xi * pr - xr * pi;
    }
    out[i] = Complex(ar, ai);
  }
  return out;
}

std::size_t peak_lag(std::span<const Complex> corr) {
  std::size_t best = 0;
  Real best_mag = -1.0;
  for (std::size_t i = 0; i < corr.size(); ++i) {
    const Real m = std::norm(corr[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

Real normalized_peak(std::span<const Complex> x, std::span<const Complex> pattern,
                     std::size_t lag) {
  assert(lag + pattern.size() <= x.size());
  Complex acc{0.0, 0.0};
  Real xe = 0.0;
  Real pe = 0.0;
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    acc += x[lag + k] * std::conj(pattern[k]);
    xe += std::norm(x[lag + k]);
    pe += std::norm(pattern[k]);
  }
  const Real denom = std::sqrt(xe * pe);
  return denom > 0.0 ? std::abs(acc) / denom : 0.0;
}

}  // namespace itb::dsp
