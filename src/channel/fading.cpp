#include "channel/fading.h"

#include <cmath>

#include "dsp/units.h"

namespace itb::channel {

Real RicianFading::sample_power_gain(itb::dsp::Xoshiro256& rng) const {
  // Rician envelope: dominant component of power K/(K+1) plus complex
  // Gaussian scatter of power 1/(K+1); total mean power 1.
  const Real k = std::max(k_factor, 0.0);
  const Real dominant = std::sqrt(k / (k + 1.0));
  const itb::dsp::Complex scatter = rng.complex_gaussian(1.0 / (k + 1.0));
  const itb::dsp::Complex h = itb::dsp::Complex{dominant, 0.0} + scatter;
  return std::norm(h);
}

Real backscatter_fade_power_gain(const RicianFading& hop1,
                                 const RicianFading& hop2,
                                 itb::dsp::Xoshiro256& rng) {
  return hop1.sample_power_gain(rng) * hop2.sample_power_gain(rng);
}

Real backscatter_fade_db(const RicianFading& hop1, const RicianFading& hop2,
                         itb::dsp::Xoshiro256& rng) {
  return itb::dsp::ratio_to_db(
      std::max(backscatter_fade_power_gain(hop1, hop2, rng), 1e-12));
}

}  // namespace itb::channel
