// Power/amplitude unit conversions (dB, dBm, watts) and signal power
// measurement helpers.
#pragma once

#include <cmath>
#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Converts a linear power ratio to decibels. `ratio` must be > 0.
inline Real ratio_to_db(Real ratio) { return 10.0 * std::log10(ratio); }

/// Converts decibels to a linear power ratio.
inline Real db_to_ratio(Real db) { return std::pow(10.0, db / 10.0); }

/// Converts power in watts to dBm.
inline Real watts_to_dbm(Real watts) { return 10.0 * std::log10(watts * 1e3); }

/// Converts dBm to watts.
inline Real dbm_to_watts(Real dbm) { return std::pow(10.0, dbm / 10.0) * 1e-3; }

/// Converts a linear amplitude (voltage-like) ratio to dB (20 log10).
inline Real amplitude_to_db(Real ratio) { return 20.0 * std::log10(ratio); }

/// Converts dB to a linear amplitude ratio.
inline Real db_to_amplitude(Real db) { return std::pow(10.0, db / 20.0); }

/// Mean power (|x|^2 average) of a complex sample block. Returns 0 for empty
/// input.
inline Real mean_power(std::span<const Complex> x) {
  if (x.empty()) return 0.0;
  Real acc = 0.0;
  for (const Complex& v : x) acc += std::norm(v);
  return acc / static_cast<Real>(x.size());
}

/// Root-mean-square amplitude of a complex sample block.
inline Real rms(std::span<const Complex> x) { return std::sqrt(mean_power(x)); }

/// Peak magnitude of a sample block. Returns 0 for empty input.
inline Real peak_magnitude(std::span<const Complex> x) {
  Real peak = 0.0;
  for (const Complex& v : x) peak = std::max(peak, std::abs(v));
  return peak;
}

}  // namespace itb::dsp
