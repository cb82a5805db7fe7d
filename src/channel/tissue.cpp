#include "channel/tissue.h"

#include <cmath>
#include <complex>

namespace itb::channel {

TissueProperties muscle_2g4() { return {52.7, 1.74}; }

TissueProperties saline_2g4() { return {74.0, 3.5}; }

Real attenuation_constant_np_per_m(const TissueProperties& t, Real freq_hz) {
  // alpha = omega * sqrt(mu*eps'/2 * (sqrt(1 + (sigma/(omega eps'))^2) - 1))
  const Real omega = itb::dsp::kTwoPi * freq_hz;
  const Real eps0 = 8.8541878128e-12;
  const Real mu0 = 4.0e-7 * itb::dsp::kPi;
  const Real eps = t.relative_permittivity * eps0;
  const Real loss_tangent = t.conductivity_s_per_m / (omega * eps);
  return omega * std::sqrt(mu0 * eps / 2.0 *
                           (std::sqrt(1.0 + loss_tangent * loss_tangent) - 1.0));
}

Real tissue_loss_db(const TissueProperties& t, Real freq_hz, Real depth_m) {
  const Real alpha = attenuation_constant_np_per_m(t, freq_hz);
  // Field decays as e^{-alpha d}; power loss in dB = 20 log10(e) * alpha * d.
  return 8.685889638 * alpha * depth_m;
}

Real interface_loss_db(const TissueProperties& t, Real freq_hz) {
  // Complex intrinsic impedance of the tissue vs. free space (377 ohm).
  const Real omega = itb::dsp::kTwoPi * freq_hz;
  const Real eps0 = 8.8541878128e-12;
  const Real mu0 = 4.0e-7 * itb::dsp::kPi;
  const std::complex<Real> eps_c{t.relative_permittivity * eps0,
                                 -t.conductivity_s_per_m / omega};
  const std::complex<Real> eta_t = std::sqrt(std::complex<Real>{mu0, 0.0} / eps_c);
  const Real eta_0 = std::sqrt(mu0 / eps0);
  const std::complex<Real> gamma = (eta_t - eta_0) / (eta_t + eta_0);
  const Real transmitted = 1.0 - std::norm(gamma);
  return -10.0 * std::log10(std::max(transmitted, 1e-9));
}

}  // namespace itb::channel
