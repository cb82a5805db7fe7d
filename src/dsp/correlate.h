// Cross-correlation primitives used for packet synchronization (802.11b SFD,
// Barker despreading, ZigBee chip matching).
//
// Like dsp/fir.h, correlation is the direct O(N*K) form: the patterns the
// receivers search for are short (the 11-chip Barker code, the 64-sample
// OFDM LTF).
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Sliding cross-correlation of x against pattern (conjugated): output[i] =
/// sum_k x[i+k] * conj(pattern[k]) for i in [0, x.size()-pattern.size()].
/// A purely real pattern runs through the SIMD kernel table.
CVec cross_correlate(std::span<const Complex> x, std::span<const Complex> pattern);

/// Index of the maximum-magnitude correlation lag.
std::size_t peak_lag(std::span<const Complex> corr);

/// Normalized correlation magnitude at a lag: |corr| / (||x_window|| *
/// ||pattern||), in [0, 1].
Real normalized_peak(std::span<const Complex> x, std::span<const Complex> pattern,
                     std::size_t lag);

}  // namespace itb::dsp
