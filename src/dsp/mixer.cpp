#include "dsp/mixer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/rng.h"

namespace itb::dsp {

// The complex products are spelled out in real arithmetic (std::complex's
// operator* calls __muldc3 for its NaN/inf recovery).
void rotate_carrier(std::span<Complex> y, Real phi0, Real step, Real pn_sigma,
                    Xoshiro256* rng) {
  assert(pn_sigma == 0.0 || rng != nullptr);
  constexpr std::size_t kAnchor = 64;
  const Real wr = std::cos(step);
  const Real wi = std::sin(step);
  Real theta = 0.0;
  for (std::size_t base = 0; base < y.size(); base += kAnchor) {
    const Real phase = phi0 + static_cast<Real>(base) * step + theta;
    Real rr = std::cos(phase);
    Real ri = std::sin(phase);
    const std::size_t end = std::min(y.size(), base + kAnchor);
    for (std::size_t i = base; i < end; ++i) {
      const Real yr = y[i].real();
      const Real yi = y[i].imag();
      y[i] = {yr * rr - yi * ri, yr * ri + yi * rr};
      // The per-sample factor q = e^{j*step} * e^{j*d} is formed off the
      // rot dependency chain, which then carries one complex multiply.
      Real qr = wr;
      Real qi = wi;
      if (pn_sigma > 0.0) {
        const Real d = pn_sigma * rng->gaussian();
        theta += d;
        const Real d2 = d * d;
        const Real c =
            1.0 + d2 * (-1.0 / 2.0 +
                        d2 * (1.0 / 24.0 +
                              d2 * (-1.0 / 720.0 + d2 * (1.0 / 40320.0))));
        const Real s =
            d * (1.0 + d2 * (-1.0 / 6.0 +
                             d2 * (1.0 / 120.0 +
                                   d2 * (-1.0 / 5040.0 + d2 / 362880.0))));
        qr = wr * c - wi * s;
        qi = wr * s + wi * c;
      }
      const Real nr = rr * qr - ri * qi;
      ri = rr * qi + ri * qr;
      rr = nr;
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
