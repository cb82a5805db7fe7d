// FFT/IFFT front end over the cached-plan engine (dsp/fft_plan.h), plus a
// reference DFT used to validate it in tests.
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// In-place radix-2 FFT through the process-wide plan cache.
/// The size must be a power of two; this is validated in ALL build modes
/// (std::invalid_argument), not just debug — a silent garbage transform in
/// release builds is how spur measurements go wrong.
void fft_inplace(std::span<Complex> x);

/// Out-of-place transforms through the plan cache. Like fft_inplace, they
/// throw std::invalid_argument unless the size is a power of two.
CVec fft(std::span<const Complex> x);
CVec ifft(std::span<const Complex> x);

/// O(N^2) reference DFT, any size: the value the fast transforms are
/// checked against.
CVec dft(std::span<const Complex> x);

/// O(N^2) inverse DFT with 1/N normalization, any size.
CVec idft(std::span<const Complex> x);

/// True if n is a power of two (and nonzero).
constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// fftshift: swaps halves so DC ends up in the middle (even sizes) —
/// convenient for plotting spectra.
RVec fftshift(std::span<const Real> x);

}  // namespace itb::dsp
