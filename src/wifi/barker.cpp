#include "wifi/barker.h"

#include <cassert>
#include <cmath>

#include "dsp/simd/kernels.h"

namespace itb::wifi {

void spread_symbol(Complex symbol, CVec& out) {
  for (int c : kBarker) out.push_back(symbol * static_cast<Real>(c));
}

CVec despread(std::span<const Complex> chips) {
  assert(chips.size() % kBarker.size() == 0);
  static const std::array<Real, 11> kBarkerReal = [] {
    std::array<Real, 11> b{};
    for (std::size_t k = 0; k < kBarker.size(); ++k) {
      b[k] = static_cast<Real>(kBarker[k]);
    }
    return b;
  }();
  const std::size_t n = chips.size() / kBarker.size();
  CVec out(n);
  // Each symbol's chip accumulation is sequential (k ascending), so every
  // dispatch level gives the same bits.
  dsp::simd::active_kernels().despread_real(
      chips.data(), kBarkerReal.data(), kBarker.size(), n,
      static_cast<Real>(kBarker.size()), out.data());
  return out;
}

}  // namespace itb::wifi
