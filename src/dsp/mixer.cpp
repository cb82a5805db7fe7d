#include "dsp/mixer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/rng.h"

namespace itb::dsp {

namespace {

constexpr std::size_t kAnchor = 64;
constexpr std::size_t kLanes = 4;
/// Largest walk since the anchor that small_sincos covers. A block whose
/// walk strays further (far beyond any preset's linewidth) takes libm.
constexpr Real kWalkRange = 0.5;

/// cos(x) and sin(x) for |x| <= kWalkRange: Taylor polynomials through x^12
/// and x^13, whose truncation error there is below 7e-16.
void small_sincos(Real x, Real& c, Real& s) {
  const Real x2 = x * x;
  c = 1.0 +
      x2 * (-1.0 / 2.0 +
            x2 * (1.0 / 24.0 +
                  x2 * (-1.0 / 720.0 +
                        x2 * (1.0 / 40320.0 +
                              x2 * (-1.0 / 3628800.0 +
                                    x2 * (1.0 / 479001600.0))))));
  s = x * (1.0 +
           x2 * (-1.0 / 6.0 +
                 x2 * (1.0 / 120.0 +
                       x2 * (-1.0 / 5040.0 +
                             x2 * (1.0 / 362880.0 +
                                   x2 * (-1.0 / 39916800.0 +
                                         x2 * (1.0 / 6227020800.0)))))));
}

}  // namespace

// The complex products are spelled out in real arithmetic (std::complex's
// operator* calls __muldc3 for its NaN/inf recovery).
void rotate_carrier(std::span<Complex> y, Real phi0, Real step, Real pn_sigma,
                    Xoshiro256* rng) {
  assert(pn_sigma == 0.0 || rng != nullptr);
  // Lane l of a block starts at the anchor times e^{j*l*step} and steps by
  // e^{j*kLanes*step}, so the block's phasors come from four independent
  // recurrences of at most 16 steps each.
  Real lane_r[kLanes] = {};
  Real lane_i[kLanes] = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    lane_r[l] = std::cos(static_cast<Real>(l) * step);
    lane_i[l] = std::sin(static_cast<Real>(l) * step);
  }
  const Real wr = std::cos(static_cast<Real>(kLanes) * step);
  const Real wi = std::sin(static_cast<Real>(kLanes) * step);

  Real pr[kAnchor] = {};
  Real pi[kAnchor] = {};
  Real walk[kAnchor] = {};
  Real wc[kAnchor] = {};
  Real ws[kAnchor] = {};
  Real theta = 0.0;
  for (std::size_t base = 0; base < y.size(); base += kAnchor) {
    const std::size_t n = std::min(kAnchor, y.size() - base);
    const Real phase = phi0 + static_cast<Real>(base) * step + theta;
    const Real ar = std::cos(phase);
    const Real ai = std::sin(phase);
    Real rr[kLanes] = {};
    Real ri[kLanes] = {};
    for (std::size_t l = 0; l < kLanes; ++l) {
      rr[l] = ar * lane_r[l] - ai * lane_i[l];
      ri[l] = ar * lane_i[l] + ai * lane_r[l];
    }
    for (std::size_t k = 0; k < n; k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        pr[k + l] = rr[l];
        pi[k + l] = ri[l];
        const Real nr = rr[l] * wr - ri[l] * wi;
        ri[l] = rr[l] * wi + ri[l] * wr;
        rr[l] = nr;
      }
    }

    if (pn_sigma > 0.0) {
      // The block's draws, in walk order, before any phasor work: walk[k]
      // is psi_k, the walk since the anchor, and theta carries the whole
      // walk to the next anchor, summed one draw at a time.
      Real psi = 0.0;
      Real reach = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const Real d = pn_sigma * rng->gaussian();
        walk[k] = psi;
        reach = std::max(reach, std::abs(psi));
        psi += d;
        theta += d;
      }
      if (reach <= kWalkRange) {
        for (std::size_t k = 0; k < n; ++k) small_sincos(walk[k], wc[k], ws[k]);
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          wc[k] = std::cos(walk[k]);
          ws[k] = std::sin(walk[k]);
        }
      }
      for (std::size_t k = 0; k < n; ++k) {
        const Real nr = pr[k] * wc[k] - pi[k] * ws[k];
        pi[k] = pr[k] * ws[k] + pi[k] * wc[k];
        pr[k] = nr;
      }
    }

    for (std::size_t k = 0; k < n; ++k) {
      const Real yr = y[base + k].real();
      const Real yi = y[base + k].imag();
      y[base + k] = {yr * pr[k] - yi * pi[k], yr * pi[k] + yi * pr[k]};
    }
  }
}

CVec tone(Real freq_hz, Real sample_rate_hz, std::size_t n, Real amplitude,
          Real initial_phase_rad) {
  Nco nco(freq_hz, sample_rate_hz, initial_phase_rad);
  CVec out(n);
  for (auto& v : out) v = amplitude * nco.next();
  return out;
}

}  // namespace itb::dsp
