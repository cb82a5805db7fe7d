// Radio propagation models used by every RSSI/range experiment:
// free-space (Friis) and log-distance path loss at 2.4 GHz, plus unit
// helpers (the paper quotes distances in feet and inches).
#pragma once

#include "dsp/types.h"

namespace itb::channel {

using itb::dsp::Real;

inline constexpr Real kFeetToMeters = 0.3048;
inline constexpr Real kInchesToMeters = 0.0254;

/// Free-space path loss in dB between isotropic antennas.
Real friis_pathloss_db(Real distance_m, Real freq_hz);

/// Log-distance model: FSPL(d0) + 10*n*log10(d/d0). The paper's indoor
/// office environment is well matched by n ~ 2.2-2.5 near the devices.
struct LogDistanceModel {
  Real exponent = 2.2;
  Real reference_m = 1.0;
  Real freq_hz = 2.44e9;

  Real pathloss_db(Real distance_m) const;
  /// FSPL(d0), the reference term of pathloss_db.
  Real reference_loss_db() const;
  /// pathloss_db with FSPL(d0) passed in as reference_loss_db(), for
  /// callers that evaluate many distances under one model; the same
  /// double as pathloss_db(distance_m).
  Real pathloss_db(Real distance_m, Real ref_loss_db) const;
};

/// Geometry helper for the paper's Fig. 10 setup: the Wi-Fi receiver moves
/// perpendicular from the midpoint of the BLE-transmitter <-> tag segment.
/// Returns the tag->receiver distance for a given perpendicular distance.
Real perpendicular_range_m(Real ble_tag_separation_m, Real perpendicular_m);

}  // namespace itb::channel
