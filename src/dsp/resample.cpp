#include "dsp/resample.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/fir.h"

namespace itb::dsp {

CVec upsample(std::span<const Complex> x, std::size_t factor) {
  assert(factor >= 1);
  if (factor == 1) return CVec(x.begin(), x.end());
  CVec stuffed(x.size() * factor, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    stuffed[i * factor] = x[i] * static_cast<Real>(factor);
  }
  const std::size_t taps = 8 * factor + 1;
  const RVec lp = design_lowpass(taps, 0.45 / static_cast<Real>(factor));
  return filter_same(stuffed, lp);
}

CVec decimate(std::span<const Complex> x, std::size_t factor) {
  assert(factor >= 1);
  if (factor == 1) return CVec(x.begin(), x.end());
  const std::size_t taps = 8 * factor + 1;
  const RVec lp = design_lowpass(taps, 0.45 / static_cast<Real>(factor));
  const CVec filtered = filter_same(x, lp);
  // Ceil semantics: keep every sample at index i*factor < x.size(), so the
  // output has ceil(n / factor) samples. The old n / factor sizing silently
  // dropped up to factor - 1 trailing samples at non-divisible lengths,
  // truncating frame tails.
  CVec out((x.size() + factor - 1) / factor);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = filtered[i * factor];
  return out;
}

CVec resample_linear(std::span<const Complex> x, Real in_rate_hz, Real out_rate_hz) {
  assert(in_rate_hz > 0 && out_rate_hz > 0);
  if (x.empty()) return {};
  const Real ratio = in_rate_hz / out_rate_hz;
  const auto out_len =
      static_cast<std::size_t>(std::floor(static_cast<Real>(x.size() - 1) / ratio)) + 1;
  CVec out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    const Real pos = static_cast<Real>(i) * ratio;
    // out_len is derived from (x.size()-1)/ratio with two roundings, so for
    // the last i the product i*ratio can land past x.size()-1 and idx would
    // index one past the end. Clamp to the final sample (frac then blends a
    // sample with itself, which is exact).
    const auto idx =
        std::min(static_cast<std::size_t>(pos), x.size() - 1);
    const Real frac = pos - static_cast<Real>(idx);
    const Complex a = x[idx];
    const Complex b = idx + 1 < x.size() ? x[idx + 1] : x[idx];
    out[i] = a + (b - a) * frac;
  }
  return out;
}

CVec hold_upsample(std::span<const Complex> x, std::size_t factor) {
  CVec out(x.size() * factor);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < factor; ++k) out[i * factor + k] = x[i];
  }
  return out;
}

}  // namespace itb::dsp
