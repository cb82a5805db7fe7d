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

 private:
  Real phase_;
  Real phase_step_;
};

/// Multiplies y[i] by e^{j(phi0 + i*step + theta_i)}, where theta is an
/// optional Wiener phase-noise walk: theta_0 = 0 and, after each sample,
/// theta grows by pn_sigma * g with g one Gaussian draw from `*rng` (no
/// draws, and rng may be null, when pn_sigma == 0).
///
/// Works in 64-sample anchor blocks, with no cos/sin per sample. Each block
/// starts from the exact phasor of its summed phase (so rounding never
/// drifts across blocks) and:
///  - draws its phase-noise increments first, in walk order, summing the
///    walk since the anchor as it goes;
///  - builds e^{j(anchor + k*step)} from four interleaved sub-phasors that
///    each step by e^{j*4*step};
///  - turns that by e^{j*psi_k}, psi_k the walk since the anchor, from a
///    degree-13 Taylor polynomial while |psi_k| <= 0.5 (truncation < 7e-16)
///    and from libm in a block whose walk strays further;
///  - multiplies the phasors into y.
/// The libm calls are a few sincos per call plus one per block.
void rotate_carrier(std::span<Complex> y, Real phi0, Real step,
                    Real pn_sigma = 0.0, Xoshiro256* rng = nullptr);

/// Generates a pure tone at freq_hz with the given amplitude.
CVec tone(Real freq_hz, Real sample_rate_hz, std::size_t n, Real amplitude = 1.0,
          Real initial_phase_rad = 0.0);

}  // namespace itb::dsp
