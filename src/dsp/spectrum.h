// Power spectral density estimation (Welch periodogram) and spectrum
// measurement helpers: band power, occupied bandwidth, sideband rejection.
//
// These back the paper's spectrum figures: Fig. 6 (SSB vs DSB) and Fig. 9
// (BLE single tone), and the tests that pin harmonic levels.
#pragma once

#include <span>

#include "dsp/types.h"
#include "dsp/window.h"

namespace itb::dsp {

/// One-shot PSD estimate.
struct Psd {
  RVec freq_hz;   ///< Bin centers, fftshifted: -fs/2 .. +fs/2.
  RVec power_db;  ///< Relative power per bin in dB (10log10 |X|^2, normalized
                  ///< so the strongest bin of a unit tone reads ~0 dB only
                  ///< when normalize_peak is used).
  RVec power_linear;  ///< Linear mean-square power per bin.
  Real bin_hz = 0.0;
};

struct WelchConfig {
  std::size_t segment_size = 1024;  ///< Must be a power of two.
  std::size_t overlap = 512;        ///< Samples of overlap between segments.
};

/// Welch-averaged PSD of x sampled at sample_rate_hz, Hann-windowed.
Psd welch_psd(std::span<const Complex> x, Real sample_rate_hz,
              const WelchConfig& cfg = {});

/// Total linear power falling inside [f_lo, f_hi] (Hz, may be negative).
Real band_power(const Psd& psd, Real f_lo_hz, Real f_hi_hz);

/// Ratio (dB) of power in the wanted band to power in the image band.
/// Positive means the wanted band is stronger.
Real sideband_rejection_db(const Psd& psd, Real wanted_lo_hz, Real wanted_hi_hz,
                           Real image_lo_hz, Real image_hi_hz);

/// Frequency (Hz) of the strongest PSD bin.
Real peak_frequency_hz(const Psd& psd);

/// Bandwidth containing `fraction` (e.g. 0.99) of total power, centered search
/// outward from the strongest bin.
Real occupied_bandwidth_hz(const Psd& psd, Real fraction);

/// Normalizes power_db so its maximum is 0 dB (for plot-style outputs).
void normalize_peak(Psd& psd);

}  // namespace itb::dsp
