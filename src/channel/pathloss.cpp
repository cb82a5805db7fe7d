#include "channel/pathloss.h"

#include <cassert>
#include <cmath>

namespace itb::channel {

Real friis_pathloss_db(Real distance_m, Real freq_hz) {
  assert(distance_m > 0.0 && freq_hz > 0.0);
  const Real lambda = itb::dsp::kSpeedOfLight / freq_hz;
  return 20.0 * std::log10(4.0 * itb::dsp::kPi * distance_m / lambda);
}

Real LogDistanceModel::pathloss_db(Real distance_m) const {
  return pathloss_db(distance_m, reference_loss_db());
}

Real LogDistanceModel::reference_loss_db() const {
  return friis_pathloss_db(reference_m, freq_hz);
}

Real LogDistanceModel::pathloss_db(Real distance_m, Real ref_loss_db) const {
  const Real d = std::max(distance_m, 0.01);
  if (d <= reference_m) {
    return friis_pathloss_db(d, freq_hz);
  }
  return ref_loss_db + 10.0 * exponent * std::log10(d / reference_m);
}

Real perpendicular_range_m(Real ble_tag_separation_m, Real perpendicular_m) {
  const Real half = ble_tag_separation_m / 2.0;
  return std::sqrt(half * half + perpendicular_m * perpendicular_m);
}

}  // namespace itb::channel
