// Antenna models: the 2 dBi monopoles on the radios, and the electrically
// small loop antennas of the contact-lens (1 cm) and neural-implant (4 cm)
// prototypes, whose low radiation efficiency and non-50-ohm impedance set
// the range difference between Fig. 10 and Figs. 15/16.
#pragma once

#include <complex>
#include <string>

#include "dsp/types.h"

namespace itb::channel {

using itb::dsp::Real;

struct Antenna {
  std::string name;
  Real gain_dbi = 2.0;
  Real efficiency_db = 0.0;        ///< radiation efficiency (<= 0)
  std::complex<Real> impedance{50.0, 0.0};

  /// Effective gain including efficiency.
  Real effective_gain_dbi() const { return gain_dbi + efficiency_db; }
};

/// 2 dBi monopole / chip antenna on phones, routers, TI dev kits, the tag.
Antenna monopole_2dbi();

/// 1 cm loop in PDMS immersed in saline (contact lens prototype, §5.1):
/// small-loop gain with heavy medium-loading loss.
Antenna contact_lens_loop();

/// 4 cm full-wavelength loop under 2 mm PDMS in tissue (§5.2).
Antenna neural_implant_loop();

/// Credit-card PCB antenna (§5.3).
Antenna card_antenna();

}  // namespace itb::channel
