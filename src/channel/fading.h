// Small-scale and large-scale fading models for the location-population
// experiments (Fig. 11's PER CDF, Fig. 14's ZigBee RSSI CDF).
//
// Indoor 2.4 GHz links are well described by log-normal shadowing (per
// location) plus Rayleigh/Rician small-scale fading (per packet). The
// backscatter link compounds two hops, so fades can hit either leg.
#pragma once

#include "dsp/rng.h"
#include "dsp/types.h"

namespace itb::channel {

using itb::dsp::Real;

struct ShadowingModel {
  Real sigma_db = 4.0;  ///< log-normal standard deviation

  /// Per-location shadowing term in dB.
  Real sample_db(itb::dsp::Xoshiro256& rng) const {
    return sigma_db * rng.gaussian();
  }
};

struct RicianFading {
  /// K-factor (linear): power ratio of the dominant path to scattered paths.
  /// K -> 0 degenerates to Rayleigh; indoor line-of-sight links are K ~ 3-8.
  Real k_factor = 4.0;

  /// Per-packet power gain (linear, mean 1) of one fading realization.
  Real sample_power_gain(itb::dsp::Xoshiro256& rng) const;
};

/// Per-packet fade of the *backscatter* channel: the product of two
/// independent hops (BLE->tag and tag->receiver), each Rician. The product
/// distribution has a heavier low tail than a single hop, which is why
/// backscatter links show more PER spread than conventional ones.
Real backscatter_fade_power_gain(const RicianFading& hop1,
                                 const RicianFading& hop2,
                                 itb::dsp::Xoshiro256& rng);

/// Convenience: dB form of backscatter_fade_power_gain (floored at -120 dB).
Real backscatter_fade_db(const RicianFading& hop1, const RicianFading& hop2,
                         itb::dsp::Xoshiro256& rng);

}  // namespace itb::channel
