// The tag's four-state complex impedance network (paper §2.3.1 and §3).
//
// Backscatter reflects the incident wave with coefficient
//   Gamma = (Za - Zc) / (Za + Zc)            [paper's sign convention]
// Switching Zc among four loads — 3 pF, open, 1 pF, 2 nH on the FPGA/IC —
// yields four reflection states that, after normalization, sit ~90 degrees
// apart on the complex plane: the tag's QPSK alphabet {1+j, 1-j, -1+j, -1-j}
// up to a common rotation/scale.
#pragma once

#include <array>
#include <complex>

#include "dsp/types.h"

namespace itb::backscatter {

using itb::dsp::Complex;
using itb::dsp::Real;

/// Lumped load kinds available to the switch network.
enum class LoadKind { kCapacitor, kInductor, kOpen, kShort, kResistor };

struct Load {
  LoadKind kind = LoadKind::kOpen;
  Real value = 0.0;  ///< farads, henries or ohms depending on kind

  /// Impedance at frequency f (Hz).
  std::complex<Real> impedance(Real freq_hz) const;
};

/// Reflection coefficient Gamma = (Za - Zc)/(Za + Zc), paper convention.
std::complex<Real> reflection_coefficient(std::complex<Real> za,
                                          std::complex<Real> zc);

/// The four-state network: loads indexed 0..3 mapped to complex baseband
/// states. The canonical order matches the ideal alphabet
/// e^{j pi/4} * {1, j, -1, -j} / sqrt(2) = {1+j, -1+j, -1-j, 1-j}/2.
struct ImpedanceNetwork {
  std::array<Load, 4> loads;
  std::complex<Real> antenna_impedance{50.0, 0.0};
  Real freq_hz = 2.44e9;

  /// Gamma for state i.
  std::complex<Real> gamma(std::size_t state) const;

  /// All four Gammas.
  std::array<std::complex<Real>, 4> gammas() const;

  /// Worst-case angular deviation (rad) of the four states from an ideal
  /// 90-degree-spaced QPSK constellation (after optimal common rotation).
  Real constellation_error_rad() const;
};

/// The paper's FPGA/IC load selection: 3 pF, open, 1 pF, 2 nH at 2.4 GHz
/// against a 50-ohm antenna.
ImpedanceNetwork paper_network();

/// An idealized network whose Gammas are exactly the unit-magnitude QPSK
/// states (used by ablation benches to isolate circuit imperfections).
ImpedanceNetwork ideal_network();

}  // namespace itb::backscatter
