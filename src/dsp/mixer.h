// Numerically-controlled oscillator and frequency-shift helpers.
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

class Xoshiro256;

/// Complex exponential generator with phase continuity across calls.
/// Models a local oscillator at `freq_hz` sampled at `sample_rate_hz`.
class Nco {
 public:
  Nco(Real freq_hz, Real sample_rate_hz, Real initial_phase_rad = 0.0)
      : phase_(initial_phase_rad),
        phase_step_(kTwoPi * freq_hz / sample_rate_hz) {}

  /// Next oscillator sample e^{j phase}.
  Complex next() {
    const Complex out{std::cos(phase_), std::sin(phase_)};
    advance(1);
    return out;
  }

  /// Generates n consecutive samples.
  CVec generate(std::size_t n) {
    CVec out(n);
    for (auto& v : out) v = next();
    return out;
  }

  /// Advances the phase by n samples without producing output.
  void advance(std::size_t n) {
    phase_ += phase_step_ * static_cast<Real>(n);
    // Keep the accumulator bounded to preserve precision on long runs.
    if (phase_ > 1e6 || phase_ < -1e6) phase_ = std::fmod(phase_, kTwoPi);
  }

  Real phase() const { return phase_; }

 private:
  Real phase_;
  Real phase_step_;
};

/// Multiplies y[i] by e^{j(phi0 + i*step + theta_i)}, where theta is an
/// optional Wiener phase-noise walk: theta_0 = 0 and, after each sample,
/// theta grows by pn_sigma * g with g one Gaussian draw from `*rng` (no
/// draws, and rng may be null, when pn_sigma == 0).
///
/// The phasor advances by a recurrence instead of a cos/sin per sample:
/// rot *= e^{j*step} * e^{j*pn_sigma*g}, with the small-angle factor from a
/// fixed Taylor polynomial (relative error < 3e-14 for |pn_sigma*g| <= 0.2).
/// Every 64 samples rot is re-anchored to the exact phasor of the summed
/// phase, which renormalises |rot| and stops rounding drift, so the only
/// libm calls are one sincos for e^{j*step} and one per 64 samples.
void rotate_carrier(std::span<Complex> y, Real phi0, Real step,
                    Real pn_sigma = 0.0, Xoshiro256* rng = nullptr);

/// Generates a pure tone at freq_hz with the given amplitude.
CVec tone(Real freq_hz, Real sample_rate_hz, std::size_t n, Real amplitude = 1.0,
          Real initial_phase_rad = 0.0);

}  // namespace itb::dsp
