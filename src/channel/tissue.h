// Biological-tissue propagation for the implant experiments (paper §5.1/5.2).
//
// The paper evaluates the neural-implant antenna inside pork muscle (whose
// dielectric constants at 2.4 GHz match grey matter, citing Gabriel et al.
// 1996) and the contact-lens antenna immersed in saline. We model a lossy
// dielectric slab: from relative permittivity eps_r and conductivity sigma
// we derive the attenuation constant alpha and a per-millimetre loss, plus
// an interface (reflection) loss at the air boundary.
#pragma once

#include "dsp/types.h"

namespace itb::channel {

using itb::dsp::Real;

struct TissueProperties {
  Real relative_permittivity;  ///< eps' at 2.4 GHz
  Real conductivity_s_per_m;   ///< sigma at 2.4 GHz
};

/// Muscle at 2.45 GHz (Gabriel et al. 1996 dispersion data).
TissueProperties muscle_2g4();

/// Physiological saline / contact-lens solution at 2.45 GHz.
TissueProperties saline_2g4();

/// Attenuation constant alpha (Np/m) of a plane wave in the material.
Real attenuation_constant_np_per_m(const TissueProperties& t, Real freq_hz);

/// One-way propagation loss (dB) through `depth_m` of tissue.
Real tissue_loss_db(const TissueProperties& t, Real freq_hz, Real depth_m);

/// Power reflection loss (dB) crossing the air/tissue interface once
/// (normal incidence, impedance mismatch).
Real interface_loss_db(const TissueProperties& t, Real freq_hz);

}  // namespace itb::channel
