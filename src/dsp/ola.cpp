#include "dsp/ola.h"

#include <algorithm>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "obs/prof.h"

namespace itb::dsp {

std::size_t overlap_save_block_size(std::size_t nh, std::size_t ny) {
  // Aim for ~8 kernel lengths per block: each block of size L yields
  // L - (nh - 1) outputs for two FFTs of L, so L >> nh keeps the per-output
  // cost near 2 log2(L) butterflies. Below 256 the FFT bookkeeping dominates.
  std::size_t block = next_power_of_two(std::max<std::size_t>(8 * nh, 256));
  // If everything fits in one transform, don't pick a bigger block than that.
  const std::size_t single = next_power_of_two(std::max<std::size_t>(ny, nh));
  return std::min(block, std::max(single, next_power_of_two(nh)));
}

CVec overlap_save_convolve(std::span<const Complex> x, std::span<const Complex> h) {
  static const std::size_t kZone = obs::prof_zone("phy.overlap_save");
  const obs::ProfZone prof(kZone);
  const std::size_t nx = x.size();
  const std::size_t nh = h.size();
  if (nx == 0 || nh == 0) return {};

  const std::size_t ny = nx + nh - 1;
  const std::size_t block = overlap_save_block_size(nh, ny);
  const std::size_t step = block - (nh - 1);
  const FftPlan& plan = fft_plan(block);

  CVec kernel_spectrum(block, Complex{0.0, 0.0});
  std::copy(h.begin(), h.end(), kernel_spectrum.begin());
  plan.forward(kernel_spectrum);

  CVec y(ny);
  CVec buf(block);
  for (std::size_t out_start = 0; out_start < ny; out_start += step) {
    // Block i covers input samples [out_start - (nh-1), out_start - (nh-1) + block),
    // zero-padded outside [0, nx); outputs land at [out_start, out_start + step).
    const std::ptrdiff_t in_start =
        static_cast<std::ptrdiff_t>(out_start) - static_cast<std::ptrdiff_t>(nh - 1);
    for (std::size_t i = 0; i < block; ++i) {
      const std::ptrdiff_t src = in_start + static_cast<std::ptrdiff_t>(i);
      buf[i] = (src >= 0 && src < static_cast<std::ptrdiff_t>(nx))
                   ? x[static_cast<std::size_t>(src)]
                   : Complex{0.0, 0.0};
    }
    plan.forward(buf);
    // Spectral multiply with explicit real arithmetic (finite operands, so
    // the std::complex inf/NaN multiply fixup is dead weight).
    for (std::size_t i = 0; i < block; ++i) {
      const Real ar = buf[i].real();
      const Real ai = buf[i].imag();
      const Real br = kernel_spectrum[i].real();
      const Real bi = kernel_spectrum[i].imag();
      buf[i] = Complex(ar * br - ai * bi, ar * bi + ai * br);
    }
    plan.inverse(buf);
    const std::size_t take = std::min(step, ny - out_start);
    for (std::size_t t = 0; t < take; ++t) y[out_start + t] = buf[nh - 1 + t];
  }
  return y;
}

}  // namespace itb::dsp
