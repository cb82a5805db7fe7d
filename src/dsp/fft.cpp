#include "dsp/fft.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/fft_plan.h"

namespace itb::dsp {

namespace {

void require_power_of_two(std::size_t n, const char* what) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument(std::string(what) +
                                ": size must be a power of two, got " +
                                std::to_string(n));
  }
}

}  // namespace

void fft_inplace(std::span<Complex> x) {
  require_power_of_two(x.size(), "fft_inplace");
  fft_plan(x.size()).forward(x);
}

CVec fft(std::span<const Complex> x) {
  require_power_of_two(x.size(), "fft");
  CVec out(x.begin(), x.end());
  fft_plan(out.size()).forward(out);
  return out;
}

CVec ifft(std::span<const Complex> x) {
  require_power_of_two(x.size(), "ifft");
  CVec out(x.begin(), x.end());
  fft_plan(out.size()).inverse(out);
  return out;
}

CVec dft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  CVec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const Real ang =
          -kTwoPi * static_cast<Real>(k) * static_cast<Real>(t) / static_cast<Real>(n);
      acc += x[t] * Complex{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc;
  }
  return out;
}

CVec idft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  CVec out(n);
  if (n == 0) return out;
  const Real inv_n = 1.0 / static_cast<Real>(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const Real ang =
          kTwoPi * static_cast<Real>(k) * static_cast<Real>(t) / static_cast<Real>(n);
      acc += x[t] * Complex{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc * inv_n;
  }
  return out;
}

RVec fftshift(std::span<const Real> x) {
  const std::size_t n = x.size();
  RVec out(n);
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < n; ++i) out[i] = x[(i + half) % n];
  return out;
}

}  // namespace itb::dsp
