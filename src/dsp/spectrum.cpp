#include "dsp/spectrum.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"

namespace itb::dsp {

Psd welch_psd(std::span<const Complex> x, Real sample_rate_hz,
              const WelchConfig& cfg) {
  assert(cfg.overlap < cfg.segment_size);
  const std::size_t seg = cfg.segment_size;
  const std::size_t hop = seg - cfg.overlap;

  const RVec w = make_window(WindowKind::kHann, seg);
  const Real wpow = window_power(w);

  // One cache lookup for the whole run; every segment reuses the tables.
  const FftPlan& plan = fft_plan(seg);

  RVec accum(seg, 0.0);
  std::size_t count = 0;
  CVec block(seg);
  if (x.size() >= seg) {
    for (std::size_t start = 0; start + seg <= x.size(); start += hop) {
      for (std::size_t i = 0; i < seg; ++i) block[i] = x[start + i] * w[i];
      plan.forward(block);
      for (std::size_t i = 0; i < seg; ++i) accum[i] += std::norm(block[i]);
      ++count;
    }
  } else {
    // Zero-pad a short input to a single segment.
    std::fill(block.begin(), block.end(), Complex{0.0, 0.0});
    for (std::size_t i = 0; i < x.size(); ++i) block[i] = x[i] * w[i];
    plan.forward(block);
    for (std::size_t i = 0; i < seg; ++i) accum[i] += std::norm(block[i]);
    count = 1;
  }

  Psd out;
  out.bin_hz = sample_rate_hz / static_cast<Real>(seg);
  out.power_linear.resize(seg);
  const Real norm = 1.0 / (static_cast<Real>(count) * wpow * static_cast<Real>(seg));
  for (std::size_t i = 0; i < seg; ++i) out.power_linear[i] = accum[i] * norm;
  out.power_linear = fftshift(std::span<const Real>(out.power_linear));

  out.freq_hz.resize(seg);
  for (std::size_t i = 0; i < seg; ++i) {
    out.freq_hz[i] =
        (static_cast<Real>(i) - static_cast<Real>(seg) / 2.0) * out.bin_hz;
  }
  out.power_db.resize(seg);
  for (std::size_t i = 0; i < seg; ++i) {
    out.power_db[i] = 10.0 * std::log10(std::max(out.power_linear[i], 1e-30));
  }
  return out;
}

Real band_power(const Psd& psd, Real f_lo_hz, Real f_hi_hz) {
  Real acc = 0.0;
  for (std::size_t i = 0; i < psd.freq_hz.size(); ++i) {
    if (psd.freq_hz[i] >= f_lo_hz && psd.freq_hz[i] <= f_hi_hz) {
      acc += psd.power_linear[i];
    }
  }
  return acc;
}

Real sideband_rejection_db(const Psd& psd, Real wanted_lo_hz, Real wanted_hi_hz,
                           Real image_lo_hz, Real image_hi_hz) {
  const Real wanted = band_power(psd, wanted_lo_hz, wanted_hi_hz);
  const Real image = band_power(psd, image_lo_hz, image_hi_hz);
  return 10.0 * std::log10(std::max(wanted, 1e-30) / std::max(image, 1e-30));
}

Real peak_frequency_hz(const Psd& psd) {
  const auto it = std::max_element(psd.power_linear.begin(), psd.power_linear.end());
  const auto idx = static_cast<std::size_t>(it - psd.power_linear.begin());
  return psd.freq_hz[idx];
}

Real occupied_bandwidth_hz(const Psd& psd, Real fraction) {
  assert(fraction > 0.0 && fraction < 1.0);
  Real total = 0.0;
  for (Real p : psd.power_linear) total += p;
  if (total <= 0.0) return 0.0;

  const auto it = std::max_element(psd.power_linear.begin(), psd.power_linear.end());
  auto lo = static_cast<std::ptrdiff_t>(it - psd.power_linear.begin());
  auto hi = lo;
  Real acc = psd.power_linear[lo];
  const auto n = static_cast<std::ptrdiff_t>(psd.power_linear.size());
  while (acc < fraction * total) {
    const Real left = lo > 0 ? psd.power_linear[lo - 1] : -1.0;
    const Real right = hi + 1 < n ? psd.power_linear[hi + 1] : -1.0;
    if (left < 0.0 && right < 0.0) break;
    if (left >= right) {
      --lo;
      acc += left;
    } else {
      ++hi;
      acc += right;
    }
  }
  return static_cast<Real>(hi - lo + 1) * psd.bin_hz;
}

void normalize_peak(Psd& psd) {
  if (psd.power_db.empty()) return;
  const Real peak = *std::max_element(psd.power_db.begin(), psd.power_db.end());
  for (Real& v : psd.power_db) v -= peak;
}

}  // namespace itb::dsp
