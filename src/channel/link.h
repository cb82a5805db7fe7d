// Backscatter link-budget calculator.
//
// RSSI of a backscattered packet at the receiver:
//   P_rx = P_tx + G_tx + G_tag - PL(d1) - L_bs - L_extra(tag) - PL(d2) + G_rx
// where L_bs is the tag's modulation conversion loss (measured from the
// simulated SSB waveform: fundamental-harmonic share of the switching
// waveform plus |Gamma| < 1), and L_extra folds in antenna efficiency,
// tissue, immersion, etc. PER mapping uses DQPSK/DSSS closed forms, with a
// Monte-Carlo cross-check in tests.
#pragma once

#include "channel/antenna.h"
#include "channel/pathloss.h"
#include "channel/tissue.h"
#include "wifi/rates.h"

namespace itb::channel {

using itb::dsp::Real;

/// The BLE helper's 2 dBi monopole and the tag's SSB conversion loss are
/// fixed in link.cpp; the tag and receiver antennas vary per prototype.
struct BackscatterLinkConfig {
  Real ble_tx_power_dbm = 0.0;
  Antenna tag_antenna = monopole_2dbi();
  Antenna rx_antenna = monopole_2dbi();
  LogDistanceModel pathloss{};
  Real ble_tag_distance_m = 0.3048;  ///< 1 ft default
  /// Additional one-way loss between tag antenna and free space on the
  /// *backscatter* side (tissue, immersion); applied twice (in + out).
  Real tag_medium_loss_db = 0.0;
  Real rx_noise_figure_db = 6.0;
  Real rx_bandwidth_hz = 22e6;
};

/// Sentinel RSSI/SNR reported for a dead link: finite (so downstream
/// arithmetic stays well-defined) but far below any decodable level.
inline constexpr Real kLinkDownDb = -300.0;

struct LinkSample {
  Real rssi_dbm;
  Real snr_db;
  Real incident_at_tag_dbm;
  /// True when the budget inputs were degenerate (non-positive/NaN
  /// distance, NaN losses — e.g. a detuned pathloss model) and the sample
  /// carries the kLinkDownDb sentinel instead of silently propagating
  /// NaN into reservation math.
  bool link_down = false;
};

/// Computes the received backscatter RSSI for a tag->receiver distance.
/// Degenerate inputs yield link_down = true with kLinkDownDb fields, never
/// NaN/inf.
LinkSample backscatter_rssi(const BackscatterLinkConfig& cfg,
                            Real tag_rx_distance_m);

/// backscatter_rssi split for callers that budget many links under one
/// config: the reference path loss and the thermal noise are evaluated
/// once here, the helper leg once per helper distance, and each receiver
/// distance then costs one path loss. backscatter_rssi(cfg, d) is
/// sample(helper_leg(cfg.ble_tag_distance_m), d), so both give the same
/// doubles. cfg.ble_tag_distance_m itself is not read.
class BackscatterBudget {
 public:
  explicit BackscatterBudget(const BackscatterLinkConfig& cfg);

  struct HelperLeg {
    Real distance_m;
    Real incident_dbm;  ///< power arriving at the tag
  };
  HelperLeg helper_leg(Real ble_tag_distance_m) const;
  LinkSample sample(const HelperLeg& leg, Real tag_rx_distance_m) const;

 private:
  LogDistanceModel pathloss_;
  Real ref_loss_db_;
  Real illumination_dbm_;  ///< BLE power + helper and tag antenna gains
  Real medium_loss_db_;
  Real tag_gain_dbi_;
  Real rx_gain_dbi_;
  Real noise_dbm_;
};

/// Theoretical BER for DBPSK / DQPSK over AWGN at the given Eb/N0 (dB).
Real ber_dbpsk(Real ebn0_db);
Real ber_dqpsk(Real ebn0_db);

/// SNR (dB, in the 22 MHz channel) -> packet error rate for an 802.11b
/// frame of `psdu_bytes`, including the DSSS processing gain at 1/2 Mbps.
/// A NaN or link-down SNR maps to PER 1 (the link_down outcome), never NaN.
/// The composition of DsssPerAtSnr's two terms below.
Real per_80211b(itb::wifi::DsssRate rate, Real snr_db, std::size_t psdu_bytes);

/// per_80211b at one SNR, split into its two terms: the 48-bit 1 Mbps
/// DBPSK header, which depends only on the SNR and is evaluated once
/// here, and the payload BER at a rate. A caller that needs several rates
/// or frame sizes at one SNR pays the header once;
/// per(payload_ber(rate), n) is per_80211b(rate, snr_db, n).
class DsssPerAtSnr {
 public:
  explicit DsssPerAtSnr(Real snr_db);

  /// Payload bit error rate at `rate`, capped at 0.5.
  Real payload_ber(itb::wifi::DsssRate rate) const;
  /// PER of a `psdu_bytes` frame whose payload sees `payload_ber`; 1 at a
  /// NaN or link-down SNR.
  Real per(Real payload_ber, std::size_t psdu_bytes) const;

 private:
  Real snr_db_;
  bool dead_;              ///< NaN or link-down SNR: certain loss
  Real header_ok_ = 0.0;   ///< P(all 48 header bits decode)
};

/// Same mapping for an 802.15.4 O-QPSK frame at 250 kbps, taking the SNR in
/// the same 22 MHz reference bandwidth so it composes with the backscatter
/// budget above. The 32-chip spreading plus the narrow channel make this
/// the most SNR-robust rung of the rate-fallback ladder (~9 dB below
/// 1 Mbps 802.11b at equal channel SNR).
Real per_802154(Real snr_db, std::size_t psdu_bytes);

/// Direct (non-backscatter) link RSSI, for the plain Wi-Fi/BLE legs.
Real direct_rssi_dbm(Real tx_power_dbm, Real tx_gain_dbi, Real rx_gain_dbi,
                     const LogDistanceModel& model, Real distance_m);

}  // namespace itb::channel
