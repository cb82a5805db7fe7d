// Tests for propagation, noise, tissue dielectrics, antennas and the
// backscatter link budget.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "channel/antenna.h"
#include "channel/awgn.h"
#include "channel/link.h"
#include "channel/pathloss.h"
#include "channel/tissue.h"
#include "dsp/mixer.h"
#include "dsp/spectrum.h"
#include "dsp/units.h"

namespace itb::channel {
namespace {

using itb::dsp::Real;

// --- path loss -----------------------------------------------------------------

TEST(PathLoss, FriisAtOneMeter2G4) {
  // FSPL(1 m, 2.44 GHz) = 20 log10(4 pi f / c) ~ 40.2 dB.
  EXPECT_NEAR(friis_pathloss_db(1.0, 2.44e9), 40.2, 0.3);
}

TEST(PathLoss, FriisSlope20DbPerDecade) {
  const Real a = friis_pathloss_db(1.0, 2.44e9);
  const Real b = friis_pathloss_db(10.0, 2.44e9);
  EXPECT_NEAR(b - a, 20.0, 1e-9);
}

TEST(PathLoss, LogDistanceSlopeMatchesExponent) {
  LogDistanceModel m;
  m.exponent = 2.8;
  const Real a = m.pathloss_db(2.0);
  const Real b = m.pathloss_db(20.0);
  EXPECT_NEAR(b - a, 28.0, 1e-9);
}

TEST(PathLoss, LogDistanceMonotonic) {
  LogDistanceModel m;
  Real prev = 0.0;
  for (Real d = 0.1; d < 50.0; d *= 1.3) {
    const Real pl = m.pathloss_db(d);
    EXPECT_GT(pl, prev);
    prev = pl;
  }
}

TEST(PathLoss, PerpendicularGeometry) {
  // At zero perpendicular distance the receiver sits at the midpoint.
  EXPECT_NEAR(perpendicular_range_m(2.0, 0.0), 1.0, 1e-12);
  // 3-4-5 triangle.
  EXPECT_NEAR(perpendicular_range_m(6.0, 4.0), 5.0, 1e-12);
}

TEST(PathLoss, UnitHelpers) {
  EXPECT_NEAR(10.0 * kFeetToMeters, 3.048, 1e-9);
  EXPECT_NEAR(12.0 * kInchesToMeters, 0.3048, 1e-9);
}

// --- noise ----------------------------------------------------------------------

TEST(Awgn, ThermalFloorValues) {
  // -174 dBm/Hz + 10 log10(22 MHz) ~ -100.6 dBm.
  EXPECT_NEAR(thermal_noise_dbm(22e6), -100.6, 0.2);
  EXPECT_NEAR(thermal_noise_dbm(20e6, 7.0), -94.0, 0.3);
  EXPECT_NEAR(thermal_noise_dbm(2e6), -111.0, 0.3);
}

TEST(Awgn, SnrTargetAchieved) {
  itb::dsp::Xoshiro256 rng(9);
  const itb::dsp::CVec x = itb::dsp::tone(0.0, 1e6, 65536);
  const itb::dsp::CVec y = add_noise_snr(x, 10.0, rng);
  // Noise power = total - signal: measure against the known unit tone.
  Real noise_acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) noise_acc += std::norm(y[i] - x[i]);
  const Real measured_snr =
      10.0 * std::log10(1.0 / (noise_acc / static_cast<Real>(x.size())));
  EXPECT_NEAR(measured_snr, 10.0, 0.3);
}

TEST(Awgn, CfoRotatesSpectrum) {
  const itb::dsp::CVec x = itb::dsp::tone(0.0, 1e6, 8192);
  const itb::dsp::CVec y = apply_cfo(x, 50e3, 1e6);
  const auto psd = itb::dsp::welch_psd(y, 1e6);
  EXPECT_NEAR(itb::dsp::peak_frequency_hz(psd), 50e3, 2 * psd.bin_hz);
}

TEST(Awgn, TypedFrequencyOffsetUnifiesPpmAndHz) {
  // Regression for the ppm-vs-Hz confusion: a tag oscillator tolerance
  // quoted in ppm must shift the spectrum by ppm * 1e-6 * carrier, not by
  // the raw ppm figure misread as Hz.
  const Real carrier = 2.44e9;
  const auto off = FrequencyOffset::from_ppm(40.0, carrier);
  EXPECT_NEAR(off.hz(), 40.0 * 1e-6 * carrier, 1e-6);
  EXPECT_NEAR(off.ppm(carrier), 40.0, 1e-12);

  const itb::dsp::CVec x = itb::dsp::tone(0.0, 1e6, 8192);
  const itb::dsp::CVec y = apply_cfo(x, off.hz(), 1e6);
  const auto psd = itb::dsp::welch_psd(y, 1e6);
  // 97.6 kHz, nowhere near the 40 Hz a unit mix-up would produce.
  EXPECT_NEAR(itb::dsp::peak_frequency_hz(psd), off.hz(), 2 * psd.bin_hz);
}

// --- tissue (paper §5.1/5.2) -------------------------------------------------------

TEST(Tissue, MuscleAttenuationMatchesLiterature) {
  // Muscle at 2.45 GHz attenuates roughly 3-5 dB/cm (Gabriel dispersion).
  const Real db_per_cm = tissue_loss_db(muscle_2g4(), 2.45e9, 0.01);
  EXPECT_GT(db_per_cm, 2.0);
  EXPECT_LT(db_per_cm, 6.0);
}

TEST(Tissue, SalineIsLossierThanMuscle) {
  EXPECT_GT(tissue_loss_db(saline_2g4(), 2.45e9, 0.01),
            tissue_loss_db(muscle_2g4(), 2.45e9, 0.01));
}

TEST(Tissue, LossScalesLinearlyWithDepth) {
  const Real one = tissue_loss_db(muscle_2g4(), 2.45e9, 0.001);
  const Real five = tissue_loss_db(muscle_2g4(), 2.45e9, 0.005);
  EXPECT_NEAR(five, 5.0 * one, 1e-9);
}

TEST(Tissue, InterfaceLossPositiveAndModest) {
  const Real loss = interface_loss_db(muscle_2g4(), 2.45e9);
  EXPECT_GT(loss, 0.5);
  EXPECT_LT(loss, 6.0);
}

// --- antennas ------------------------------------------------------------------------

TEST(Antenna, ImplantAntennasAreLossy) {
  EXPECT_LT(contact_lens_loop().effective_gain_dbi(), -8.0);
  EXPECT_LT(neural_implant_loop().effective_gain_dbi(),
            monopole_2dbi().effective_gain_dbi());
}

// --- link budget -----------------------------------------------------------------------

TEST(Link, RssiDecreasesWithDistance) {
  BackscatterLinkConfig cfg;
  Real prev = 0.0;
  bool first = true;
  for (Real d = 1.0; d < 30.0; d *= 1.5) {
    const LinkSample s = backscatter_rssi(cfg, d);
    if (!first) {
      EXPECT_LT(s.rssi_dbm, prev);
    }
    prev = s.rssi_dbm;
    first = false;
  }
}

TEST(Link, HigherTxPowerRaisesRssiOneForOne) {
  BackscatterLinkConfig lo;
  lo.ble_tx_power_dbm = 0.0;
  BackscatterLinkConfig hi = lo;
  hi.ble_tx_power_dbm = 20.0;
  const Real d = 5.0;
  EXPECT_NEAR(backscatter_rssi(hi, d).rssi_dbm - backscatter_rssi(lo, d).rssi_dbm,
              20.0, 1e-9);
}

TEST(Link, TagMediumLossAppliedTwice) {
  BackscatterLinkConfig base;
  BackscatterLinkConfig lossy = base;
  lossy.tag_medium_loss_db = 7.0;
  const Real d = 3.0;
  EXPECT_NEAR(backscatter_rssi(base, d).rssi_dbm - backscatter_rssi(lossy, d).rssi_dbm,
              14.0, 1e-9);
}

TEST(Link, FartherBleSourceLowersIncidentPower) {
  BackscatterLinkConfig near;
  near.ble_tag_distance_m = 0.3048;
  BackscatterLinkConfig far = near;
  far.ble_tag_distance_m = 3 * 0.3048;
  const LinkSample a = backscatter_rssi(near, 5.0);
  const LinkSample b = backscatter_rssi(far, 5.0);
  EXPECT_GT(a.incident_at_tag_dbm, b.incident_at_tag_dbm);
  EXPECT_GT(a.rssi_dbm, b.rssi_dbm);
}

TEST(Link, BerFormulasDecreasing) {
  Real prev_b = 1.0;
  Real prev_q = 1.0;
  for (Real ebn0 = 0.0; ebn0 < 14.0; ebn0 += 2.0) {
    const Real b = ber_dbpsk(ebn0);
    const Real q = ber_dqpsk(ebn0);
    EXPECT_LT(b, prev_b);
    EXPECT_LT(q, prev_q);
    prev_b = b;
    prev_q = q;
  }
}

TEST(Link, PerMonotoneInSnr) {
  for (const auto rate : {itb::wifi::DsssRate::k2Mbps, itb::wifi::DsssRate::k11Mbps}) {
    Real prev = 1.1;
    for (Real snr = -4.0; snr < 16.0; snr += 2.0) {
      const Real per = per_80211b(rate, snr, 31);
      EXPECT_LE(per, prev + 1e-12);
      prev = per;
    }
  }
}

TEST(Link, PerNearZeroAtHighSnrNearOneAtLowSnr) {
  EXPECT_LT(per_80211b(itb::wifi::DsssRate::k2Mbps, 15.0, 31), 1e-3);
  EXPECT_GT(per_80211b(itb::wifi::DsssRate::k2Mbps, -10.0, 31), 0.9);
}

TEST(Link, HigherRateNeedsMoreSnr) {
  // At the same SNR, 11 Mbps has higher PER than 2 Mbps for equal payloads.
  const Real snr = 6.0;
  EXPECT_GT(per_80211b(itb::wifi::DsssRate::k11Mbps, snr, 31),
            per_80211b(itb::wifi::DsssRate::k2Mbps, snr, 31));
}

TEST(Link, DegenerateGeometryReportsLinkDownNotNan) {
  // Non-positive or NaN distances drive the pathloss model to NaN/-inf;
  // the guard must surface an explicit dead link instead.
  BackscatterLinkConfig cfg;
  for (const Real bad : {Real{0.0}, Real{-2.0},
                         std::numeric_limits<Real>::quiet_NaN()}) {
    cfg.ble_tag_distance_m = 1.0;
    const LinkSample s = backscatter_rssi(cfg, bad);
    EXPECT_TRUE(s.link_down);
    EXPECT_DOUBLE_EQ(s.snr_db, kLinkDownDb);
    EXPECT_FALSE(std::isnan(s.rssi_dbm));

    cfg.ble_tag_distance_m = bad;
    const LinkSample s2 = backscatter_rssi(cfg, 1.0);
    EXPECT_TRUE(s2.link_down);
    EXPECT_DOUBLE_EQ(s2.snr_db, kLinkDownDb);
  }
  // A detuned model (NaN loss) must also surface as link_down.
  cfg.ble_tag_distance_m = 1.0;
  cfg.tag_medium_loss_db = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_TRUE(backscatter_rssi(cfg, 1.0).link_down);
  // A sane geometry stays up.
  EXPECT_FALSE(backscatter_rssi(BackscatterLinkConfig{}, 2.0).link_down);
}

TEST(Link, PerGuardsAgainstNanAndLinkDownSnr) {
  EXPECT_DOUBLE_EQ(per_80211b(itb::wifi::DsssRate::k2Mbps,
                              std::numeric_limits<Real>::quiet_NaN(), 31),
                   1.0);
  EXPECT_DOUBLE_EQ(per_80211b(itb::wifi::DsssRate::k2Mbps, kLinkDownDb, 31),
                   1.0);
  EXPECT_DOUBLE_EQ(
      per_802154(std::numeric_limits<Real>::quiet_NaN(), 31), 1.0);
  EXPECT_DOUBLE_EQ(per_802154(kLinkDownDb, 31), 1.0);
}

TEST(Link, ZigbeePerMonotoneAndMoreRobustThanWifi) {
  // 250 kbps O-QPSK in the 22 MHz reference bandwidth gains ~19 dB of
  // processing margin over 1 Mbps DSSS; at any SNR where Wi-Fi struggles,
  // the ZigBee rung must decode strictly better (the graceful-degradation
  // ladder's final rung has to actually help).
  Real prev = 1.0;
  for (Real snr = -20.0; snr < 5.0; snr += 2.0) {
    const Real per = per_802154(snr, 31);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
    EXPECT_LE(per, per_80211b(itb::wifi::DsssRate::k1Mbps, snr, 31) + 1e-12);
  }
  EXPECT_LT(per_802154(-8.0, 31), 1e-3);
  EXPECT_GT(per_802154(-25.0, 31), 0.9);
}

TEST(Link, DirectRssiSanity) {
  LogDistanceModel m;
  const Real rssi = direct_rssi_dbm(0.0, 2.0, 2.0, m, 10.0);
  // 0 dBm + 4 dBi - (~40 + 22*log ratio) => between -70 and -50.
  EXPECT_LT(rssi, -50.0);
  EXPECT_GT(rssi, -75.0);
}

}  // namespace
}  // namespace itb::channel
