// Sample-rate conversion helpers.
//
// Different PHYs in this project run at different natural rates (BLE at
// 8 Msps, 802.11b synthesis at 143 Msps, OFDM at 20 Msps, ZigBee at
// 96 Msps); the channel combiner resamples everything to a common rate.
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Integer upsampling: zero-stuff by factor L then low-pass interpolate.
/// Output length is exactly x.size() * L.
CVec upsample(std::span<const Complex> x, std::size_t factor);

/// Integer decimation: anti-alias low-pass then keep every Mth sample
/// (indices 0, M, 2M, ...). Output length is ceil(x.size() / M): a trailing
/// partial stride still contributes its first sample, so frame tails at
/// non-divisible lengths are never silently dropped.
CVec decimate(std::span<const Complex> x, std::size_t factor);

/// Linear-interpolation resampler to an arbitrary rational/real ratio
/// out_rate/in_rate. Adequate for the smooth (already band-limited) signals
/// this project moves between rate domains.
CVec resample_linear(std::span<const Complex> x, Real in_rate_hz, Real out_rate_hz);

/// Repeats each sample `factor` times (zero-order hold). Used for chip-rate
/// to sample-rate expansion where the rectangular shape is intentional
/// (switching waveforms).
CVec hold_upsample(std::span<const Complex> x, std::size_t factor);

}  // namespace itb::dsp
