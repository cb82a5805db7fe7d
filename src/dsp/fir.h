// FIR filter design (windowed-sinc) and filtering, plus the Gaussian pulse
// shaping filter that defines BLE's GFSK spectral mask.
//
// Filtering is the direct O(N*K) form: every filter the PHYs run is short
// (the GFSK Gaussian has 25 taps), so a spectral path would not pay.
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Designs an odd-length linear-phase low-pass FIR with the windowed-sinc
/// method. `cutoff_norm` is the -6 dB cutoff as a fraction of the sample rate
/// (0 < cutoff_norm < 0.5). Taps are normalized to unity DC gain.
RVec design_lowpass(std::size_t num_taps, Real cutoff_norm);

/// Gaussian filter taps for GFSK pulse shaping.
/// `bt` is the bandwidth-time product (0.5 for BLE), `sps` samples per symbol,
/// `span_symbols` the filter length in symbols. Taps normalized so their sum
/// is 1 (preserves the peak frequency deviation of a long run of same bits).
RVec design_gaussian(Real bt, std::size_t sps, std::size_t span_symbols);

/// Half-sine pulse of one chip length, used by 802.15.4 O-QPSK shaping.
RVec half_sine_pulse(std::size_t sps);

/// Full convolution: output length = x.size() + taps.size() - 1.
CVec convolve(std::span<const Complex> x, std::span<const Real> taps);
RVec convolve(std::span<const Real> x, std::span<const Real> taps);

/// "Same"-length filtering: convolution cropped to x.size() samples with the
/// group delay compensated (taps must be odd-length for exact alignment).
CVec filter_same(std::span<const Complex> x, std::span<const Real> taps);
RVec filter_same(std::span<const Real> x, std::span<const Real> taps);

}  // namespace itb::dsp
