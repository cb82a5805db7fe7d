#include "dsp/rng.h"

#include <cmath>

namespace itb::dsp {

namespace {

Real density(Real x) { return std::exp(-0.5 * x * x); }

}  // namespace

Ziggurat::Ziggurat() {
  x[0] = kV / density(kR);
  x[1] = kR;
  // Each layer has area v: x[i] * (f(x[i+1]) - f(x[i])) = v.
  for (std::size_t i = 2; i < kLayers; ++i) {
    x[i] = std::sqrt(-2.0 * std::log(kV / x[i - 1] + density(x[i - 1])));
  }
  x[kLayers] = 0.0;
  for (std::size_t i = 0; i <= kLayers; ++i) f[i] = density(x[i]);
}

Real Xoshiro256::gaussian_tail() {
  // Marsaglia (1964): exponential proposals t beyond r, accepted with
  // probability exp(-t^2/2). 1 - uniform() lies in (0, 1], so log is finite.
  Real t = 0.0;
  Real e = 0.0;
  do {
    t = -std::log(1.0 - uniform()) / Ziggurat::kR;
    e = -std::log(1.0 - uniform());
  } while (e + e < t * t);
  return Ziggurat::kR + t;
}

bool Xoshiro256::wedge_accepts(std::size_t layer, Real x) {
  const Ziggurat& z = ziggurat();
  return z.f[layer] + uniform() * (z.f[layer + 1] - z.f[layer]) < density(x);
}

}  // namespace itb::dsp
