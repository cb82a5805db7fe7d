#include "backscatter/ic_power.h"

namespace itb::backscatter {

namespace {

/// Paper-calibrated block powers at the reference point (35.75 MHz shift,
/// 2 Mbps baseband, 143 MHz PLL): 9.69 + 8.51 + 9.79 = 28 uW.
constexpr Real kSynthesizerUwRef = 9.69;
constexpr Real kBasebandUwRef = 8.51;
constexpr Real kModulatorUwRef = 9.79;
constexpr Real kRefShiftHz = 35.75e6;
/// Leakage fraction of each block that does not scale with frequency.
constexpr Real kStaticFraction = 0.15;

}  // namespace

PowerBreakdown IcPowerModel::active_power(itb::wifi::DsssRate rate,
                                          Real shift_hz) const {
  const Real s = kStaticFraction;
  const Real shift_scale = std::abs(shift_hz) / kRefShiftHz;

  // The synthesizer's PLL runs at 4x the shift; its dynamic power scales
  // with that clock.
  const Real synth =
      kSynthesizerUwRef * (s + (1.0 - s) * shift_scale);

  // Baseband switching activity scales with the encoded chip rate; all
  // 802.11b rates share the 11 Mchip/s clock but CCK toggles more logic.
  Real baseband_scale = 1.0;
  switch (rate) {
    case itb::wifi::DsssRate::k1Mbps:
      baseband_scale = 0.95;
      break;
    case itb::wifi::DsssRate::k2Mbps:
      baseband_scale = 1.0;
      break;
    case itb::wifi::DsssRate::k5_5Mbps:
      baseband_scale = 1.18;
      break;
    case itb::wifi::DsssRate::k11Mbps:
      baseband_scale = 1.32;
      break;
  }
  const Real baseband = kBasebandUwRef * (s + (1.0 - s) * baseband_scale);

  // The modulator burns power per switch transition: ~4 transitions per
  // shift period regardless of rate.
  const Real modulator =
      kModulatorUwRef * (s + (1.0 - s) * shift_scale);

  return {synth, baseband, modulator};
}

Real IcPowerModel::average_power_uw(itb::wifi::DsssRate rate, Real shift_hz,
                                    Real airtime_fraction) const {
  const PowerBreakdown active = active_power(rate, shift_hz);
  const Real sleep = active.total_uw() * kStaticFraction * 0.1;
  return airtime_fraction * active.total_uw() +
         (1.0 - airtime_fraction) * sleep;
}

Real IcPowerModel::energy_per_bit_pj(itb::wifi::DsssRate rate,
                                     Real shift_hz) const {
  const PowerBreakdown p = active_power(rate, shift_hz);
  // uW / Mbps = pJ/bit.
  return p.total_uw() / itb::wifi::rate_mbps(rate);
}

std::vector<RadioReference> active_radio_references() {
  return {
      {"802.11b Wi-Fi transceiver (TX)", 300'000.0},
      {"BLE SoC radio (TX, 0 dBm)", 18'000.0},
      {"802.15.4 ZigBee radio (TX)", 30'000.0},
      {"Passive Wi-Fi tag (reference design)", 59.2},
      {"Interscatter IC (this work, 2 Mbps)", 28.0},
  };
}

}  // namespace itb::backscatter
