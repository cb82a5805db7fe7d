// Additive white Gaussian noise, thermal noise floors and SNR utilities.
#pragma once

#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace itb::channel {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;

/// Thermal noise power (dBm) in a bandwidth: -174 dBm/Hz + 10log10(BW) + NF.
Real thermal_noise_dbm(Real bandwidth_hz, Real noise_figure_db = 0.0);

/// A carrier frequency offset with its unit made explicit at the call site.
///
/// Oscillator datasheets quote offsets in ppm of the carrier while baseband
/// math needs Hz; passing a bare Real invites silently feeding ppm where Hz
/// is expected (a 40 ppm tag offset at 2.44 GHz is ~98 kHz, not 40 Hz).
/// Construction is only possible through the named factories, so every
/// conversion is spelled out exactly once.
class FrequencyOffset {
 public:
  static FrequencyOffset from_hz(Real hz) { return FrequencyOffset(hz); }
  static FrequencyOffset from_ppm(Real ppm, Real carrier_hz) {
    return FrequencyOffset(ppm * 1e-6 * carrier_hz);
  }

  Real hz() const { return hz_; }
  Real ppm(Real carrier_hz) const { return hz_ / carrier_hz * 1e6; }

 private:
  explicit FrequencyOffset(Real hz) : hz_(hz) {}
  Real hz_;
};

/// Adds complex AWGN of the given total noise power (variance) to samples,
/// in place.
void add_noise_variance_inplace(std::span<Complex> x, Real noise_variance,
                                itb::dsp::Xoshiro256& rng);
/// add_noise_variance_inplace on a copy of x.
CVec add_noise_variance(const CVec& x, Real noise_variance,
                        itb::dsp::Xoshiro256& rng);

/// Adds noise to achieve the requested SNR (dB) relative to the mean power
/// of x, in place.
void add_noise_snr_inplace(std::span<Complex> x, Real snr_db,
                           itb::dsp::Xoshiro256& rng);
/// add_noise_snr_inplace on a copy of x.
CVec add_noise_snr(const CVec& x, Real snr_db, itb::dsp::Xoshiro256& rng);

/// Applies a static carrier frequency offset (Hz) and initial phase.
CVec apply_cfo(const CVec& x, Real cfo_hz, Real sample_rate_hz,
               Real initial_phase_rad = 0.0);

}  // namespace itb::channel
