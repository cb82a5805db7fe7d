// 11-chip Barker spreading used by 802.11b at 1 and 2 Mbps.
#pragma once

#include <array>
#include <span>

#include "dsp/types.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;

/// The 802.11 Barker sequence, chip 0 first: +1 −1 +1 +1 −1 +1 +1 +1 −1 −1 −1.
inline constexpr std::array<int, 11> kBarker = {1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1};

/// Spreads one complex PSK symbol into 11 chips appended to `out`.
void spread_symbol(Complex symbol, CVec& out);

/// Despreads chips back into symbols by correlating with the Barker code.
/// chips.size() must be a multiple of 11. Output is normalized by 11 so an
/// ideal channel returns the original symbols.
CVec despread(std::span<const Complex> chips);

}  // namespace itb::wifi
