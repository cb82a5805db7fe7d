#include "channel/link.h"

#include <algorithm>
#include <cmath>

#include "channel/awgn.h"
#include "dsp/units.h"

namespace itb::channel {

namespace {

/// Effective gain of the BLE helper's antenna: a 2 dBi monopole
/// (monopole_2dbi()) at full radiation efficiency.
constexpr Real kBleAntennaGainDbi = 2.0;
/// Conversion loss of the tag's single-sideband modulator: the value
/// measured from the simulated waveform (see backscatter tests).
constexpr Real kBackscatterConversionLossDb = 6.2;

/// The channel SNR is in 22 MHz; Eb/N0 = SNR * BW / bitrate. Each rate's
/// log10(BW / bitrate) is written out as glibc's run-time log10 of it: GCC
/// folds log10(11) at -O1 to the correctly rounded value, one ulp above
/// glibc's, and a literal makes every -O level draw the same PER.
Real log10_bandwidth_over_bitrate(itb::wifi::DsssRate rate) {
  using itb::wifi::DsssRate;
  switch (rate) {
    case DsssRate::k1Mbps:
      return 0x1.57a903478a3eep+0;  // log10(22)
    case DsssRate::k2Mbps:
      return 0x1.0a98b6050c56ep+0;  // log10(11)
    case DsssRate::k5_5Mbps:
      return 0x1.34413509f79ffp-1;  // log10(4)
    case DsssRate::k11Mbps:
      return 0x1.34413509f79ffp-2;  // log10(2)
  }
  return 0.0;
}

}  // namespace

LinkSample backscatter_rssi(const BackscatterLinkConfig& cfg,
                            Real tag_rx_distance_m) {
  const BackscatterBudget budget(cfg);
  return budget.sample(budget.helper_leg(cfg.ble_tag_distance_m),
                       tag_rx_distance_m);
}

BackscatterBudget::BackscatterBudget(const BackscatterLinkConfig& cfg)
    : pathloss_(cfg.pathloss),
      ref_loss_db_(cfg.pathloss.reference_loss_db()),
      illumination_dbm_(cfg.ble_tx_power_dbm + kBleAntennaGainDbi +
                        cfg.tag_antenna.effective_gain_dbi()),
      medium_loss_db_(cfg.tag_medium_loss_db),
      tag_gain_dbi_(cfg.tag_antenna.effective_gain_dbi()),
      rx_gain_dbi_(cfg.rx_antenna.effective_gain_dbi()),
      noise_dbm_(
          thermal_noise_dbm(cfg.rx_bandwidth_hz, cfg.rx_noise_figure_db)) {}

BackscatterBudget::HelperLeg BackscatterBudget::helper_leg(
    Real ble_tag_distance_m) const {
  const Real pl1 = pathloss_.pathloss_db(ble_tag_distance_m, ref_loss_db_);
  return {ble_tag_distance_m, illumination_dbm_ - pl1 - medium_loss_db_};
}

LinkSample BackscatterBudget::sample(const HelperLeg& leg,
                                     Real tag_rx_distance_m) const {
  // Degenerate geometry (non-positive or NaN distances) drives the
  // pathloss model to NaN/-inf; report an explicit dead link instead of
  // letting the garbage reach reservation and PER math downstream.
  if (!(leg.distance_m > 0.0) || !(tag_rx_distance_m > 0.0)) {
    return {kLinkDownDb, kLinkDownDb, kLinkDownDb, true};
  }
  const Real incident = leg.incident_dbm;
  const Real pl2 = pathloss_.pathloss_db(tag_rx_distance_m, ref_loss_db_);
  const Real rssi = incident - kBackscatterConversionLossDb -
                    medium_loss_db_ + tag_gain_dbi_ - pl2 + rx_gain_dbi_;

  LinkSample out{rssi, rssi - noise_dbm_, incident, false};
  // NaN losses / gains / noise figures (a detuned model, not just a far
  // tag) must also surface as link_down rather than NaN.
  if (!std::isfinite(out.rssi_dbm) || !std::isfinite(out.snr_db) ||
      !std::isfinite(out.incident_at_tag_dbm)) {
    return {kLinkDownDb, kLinkDownDb, kLinkDownDb, true};
  }
  return out;
}

Real ber_dbpsk(Real ebn0_db) {
  const Real g = itb::dsp::db_to_ratio(ebn0_db);
  return 0.5 * std::exp(-g);
}

Real ber_dqpsk(Real ebn0_db) {
  // Standard tight approximation for Gray-coded DQPSK:
  // 0.5 * exp(-(sqrt(2) - 1) * 2 * Eb/N0 * ... ) — we use the common
  // Marcum-free bound P_b ~ 0.5 exp(-0.59 * 2 g) which tracks the exact
  // curve within ~0.5 dB over the PER-relevant range.
  const Real g = itb::dsp::db_to_ratio(ebn0_db);
  return 0.5 * std::exp(-1.17 * g);
}

Real per_80211b(itb::wifi::DsssRate rate, Real snr_db, std::size_t psdu_bytes) {
  const DsssPerAtSnr at(snr_db);
  return at.per(at.payload_ber(rate), psdu_bytes);
}

DsssPerAtSnr::DsssPerAtSnr(Real snr_db)
    // NaN SNR (garbage budget input) and the link-down sentinel are both
    // certain loss, not NaN PER.
    : snr_db_(snr_db), dead_(std::isnan(snr_db) || snr_db <= kLinkDownDb) {
  if (dead_) return;
  // Preamble+header at 1 Mbps DBPSK, then payload at the data rate.
  const Real hdr_ebn0_db =
      snr_db + 10.0 * log10_bandwidth_over_bitrate(itb::wifi::DsssRate::k1Mbps);
  const Real hdr_ber = std::min(ber_dbpsk(hdr_ebn0_db), 0.5);
  const double hdr_bits = 48.0;  // header; SFD detection is more robust
  header_ok_ = std::pow(1.0 - hdr_ber, hdr_bits);
}

Real DsssPerAtSnr::payload_ber(itb::wifi::DsssRate rate) const {
  using itb::wifi::DsssRate;
  if (dead_) return 0.5;
  // Implementation loss: real receivers lose ~3 dB to chip-timing
  // acquisition, differential detection and channel estimation relative to
  // ideal coherent detection. Not fitted: bench/ablation_per_model prints
  // how far this closed form sits left of the waveform-level Monte Carlo
  // at PER 0.5 and 0.1 (about 1-2 dB optimistic at 2 and 11 Mbps).
  constexpr Real kImplementationLossDb = 3.0;
  const Real ebn0_db = snr_db_ - kImplementationLossDb +
                       10.0 * log10_bandwidth_over_bitrate(rate);

  Real ber = 0.0;
  switch (rate) {
    case DsssRate::k1Mbps:
      ber = ber_dbpsk(ebn0_db);
      break;
    case DsssRate::k2Mbps:
      ber = ber_dqpsk(ebn0_db);
      break;
    case DsssRate::k5_5Mbps:
      // CCK-4 block coding gain ~1 dB over uncoded DQPSK at equal Eb/N0.
      ber = ber_dqpsk(ebn0_db + 1.0);
      break;
    case DsssRate::k11Mbps:
      // CCK-8 coding gain ~2 dB. Net channel-SNR gap between 11 and 2 Mbps
      // is then ~5.4 dB, matching typical receiver sensitivity specs
      // (-88 dBm at 2 Mbps vs ~-82.5 dBm at 11 Mbps).
      ber = ber_dqpsk(ebn0_db + 2.0);
      break;
  }
  return std::min(ber, 0.5);
}

Real DsssPerAtSnr::per(Real payload_ber, std::size_t psdu_bytes) const {
  if (dead_) return 1.0;
  const double payload_bits = static_cast<double>(psdu_bytes) * 8.0;
  const Real p_ok = header_ok_ * std::pow(1.0 - payload_ber, payload_bits);
  return 1.0 - p_ok;
}

Real per_802154(Real snr_db, std::size_t psdu_bytes) {
  if (std::isnan(snr_db) || snr_db <= kLinkDownDb) return 1.0;
  // 250 kbps in the 22 MHz reference bandwidth: Eb/N0 = SNR + 19.4 dB.
  // The (32, 4) quasi-orthogonal chip code behaves like ~2 dB of coding
  // gain over differential QPSK under the repo's noncoherent DPDI
  // receiver; the same 3 dB implementation loss as per_80211b applies.
  constexpr Real kImplementationLossDb = 3.0;
  constexpr Real kCodingGainDb = 2.0;
  const Real ebn0_db = snr_db - kImplementationLossDb + kCodingGainDb +
                       10.0 * std::log10(22e6 / 250e3);
  const Real ber = std::min(ber_dqpsk(ebn0_db), Real{0.5});
  // SHR + PHR (6 bytes) protect the sync; fold them into the frame length.
  const double bits = (static_cast<double>(psdu_bytes) + 6.0) * 8.0;
  return 1.0 - std::pow(1.0 - ber, bits);
}

Real direct_rssi_dbm(Real tx_power_dbm, Real tx_gain_dbi, Real rx_gain_dbi,
                     const LogDistanceModel& model, Real distance_m) {
  return tx_power_dbm + tx_gain_dbi + rx_gain_dbi - model.pathloss_db(distance_m);
}

}  // namespace itb::channel
