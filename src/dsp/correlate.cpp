#include "dsp/correlate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include <vector>

#include "dsp/fir.h"
#include "dsp/ola.h"
#include "dsp/simd/kernels.h"
#include "obs/prof.h"

namespace itb::dsp {

CVec cross_correlate_direct(std::span<const Complex> x,
                            std::span<const Complex> pattern) {
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

CVec cross_correlate_fft(std::span<const Complex> x,
                         std::span<const Complex> pattern) {
  static const std::size_t kZone = obs::prof_zone("phy.correlate_fft");
  const obs::ProfZone prof(kZone);
  if (x.size() < pattern.size() || pattern.empty()) return {};
  const std::size_t np = pattern.size();
  // corr[i] = sum_k x[i+k] conj(p[k]) is the full linear convolution of x
  // with the conjugate-reversed pattern, restricted to its "valid" region
  // [np-1, np-1 + (nx-np+1)).
  CVec kernel(np);
  for (std::size_t k = 0; k < np; ++k) kernel[k] = std::conj(pattern[np - 1 - k]);
  const CVec full = overlap_save_convolve(x, kernel);
  return CVec(full.begin() + static_cast<std::ptrdiff_t>(np - 1),
              full.begin() + static_cast<std::ptrdiff_t>(np - 1 + x.size() - np + 1));
}

bool correlate_prefers_fft(std::size_t signal_len, std::size_t pattern_len) {
  // Correlation is convolution with the conjugate-reversed pattern, so the
  // crossover economics are identical; keep one source of truth.
  return convolve_prefers_fft(signal_len, pattern_len);
}

CVec cross_correlate(std::span<const Complex> x, std::span<const Complex> pattern) {
  return correlate_prefers_fft(x.size(), pattern.size())
             ? cross_correlate_fft(x, pattern)
             : cross_correlate_direct(x, pattern);
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
