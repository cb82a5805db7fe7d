#include "dsp/fft_plan.h"

#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dsp/fft.h"
#include "obs/prof.h"

namespace itb::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two, got " +
                                std::to_string(n));
  }
  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }

  if (n >= 2) {
    twiddles_.resize(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      Complex* stage = twiddles_.data() + (len / 2 - 1);
      for (std::size_t k = 0; k < len / 2; ++k) {
        stage[k] = std::polar<Real>(
            1.0, -kTwoPi * static_cast<Real>(k) / static_cast<Real>(len));
      }
    }
  }
}

template <bool kInverse>
void FftPlan::run(std::span<Complex> x) const {
  static const std::size_t kZone = obs::prof_zone("phy.fft");
  const obs::ProfZone prof(kZone);
  // Validated in all build modes for the same reason as fft_inplace: a
  // size-mismatched span would silently corrupt memory in release builds.
  if (x.size() != n_) {
    throw std::invalid_argument("FftPlan: span size " + std::to_string(x.size()) +
                                " does not match plan size " + std::to_string(n_));
  }
  const std::size_t n = n_;
  Complex* const a = x.data();

  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  // Stage len == 2 has twiddle 1 (a one-point transform has no stage);
  // stage len == 4 has twiddles 1 and -j (forward) / +j (inverse); stages
  // len >= 8 use the precomputed stage-major twiddle table.
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const Complex u = a[i];
    const Complex v = a[i + 1];
    a[i] = u + v;
    a[i + 1] = u - v;
  }
  if (n >= 4) {
    for (std::size_t i = 0; i < n; i += 4) {
      const Complex u0 = a[i];
      const Complex u1 = a[i + 1];
      const Complex v0 = a[i + 2];
      const Complex t = a[i + 3];
      const Complex v1 = kInverse ? Complex(-t.imag(), t.real())
                                  : Complex(t.imag(), -t.real());
      a[i] = u0 + v0;
      a[i + 2] = u0 - v0;
      a[i + 1] = u1 + v1;
      a[i + 3] = u1 - v1;
    }
  }

  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* const tw = twiddles_.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      Complex* const lo = a + i;
      Complex* const hi = a + i + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Real wr = tw[k].real();
        const Real wi = kInverse ? -tw[k].imag() : tw[k].imag();
        const Real hr = hi[k].real();
        const Real hi_im = hi[k].imag();
        const Real vr = hr * wr - hi_im * wi;
        const Real vi = hr * wi + hi_im * wr;
        const Complex l = lo[k];
        hi[k] = Complex(l.real() - vr, l.imag() - vi);
        lo[k] = Complex(l.real() + vr, l.imag() + vi);
      }
    }
  }

  if (kInverse) {
    const Real inv_n = 1.0 / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

void FftPlan::forward(std::span<Complex> x) const { run<false>(x); }

void FftPlan::inverse(std::span<Complex> x) const { run<true>(x); }

const FftPlan& fft_plan(std::size_t n) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<FftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<FftPlan>>();
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*cache)[n];
  if (!slot) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

}  // namespace itb::dsp
