// Failure-injection and robustness tests across the stack: carrier offsets,
// timing errors beyond the guard interval, wrong seeds, detuned antennas,
// truncated captures, and fading statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "backscatter/detector.h"
#include "backscatter/wifi_synth.h"
#include "ble/single_tone.h"
#include "channel/awgn.h"
#include "channel/fading.h"
#include "core/downlink.h"
#include "core/interscatter.h"
#include "core/monte_carlo.h"
#include "dsp/spectrum.h"
#include "dsp/units.h"
#include "wifi/am_downlink.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "wifi/ofdm_rx.h"

namespace itb {
namespace {

using dsp::CVec;
using dsp::Real;

// --- CFO robustness ------------------------------------------------------------

TEST(Robustness, DsssSurvivesSmallCfo) {
  // Differential demodulation tolerates CFO well below the symbol rate.
  wifi::DsssTxConfig txcfg;
  txcfg.rate = wifi::DsssRate::k2Mbps;
  const wifi::DsssTransmitter tx(txcfg);
  const phy::Bytes psdu(31, 0x77);
  const auto frame = tx.modulate(psdu);
  for (const Real cfo : {5e3, 20e3, 50e3}) {
    const CVec offset = channel::apply_cfo(frame.baseband, cfo, 11e6);
    const wifi::DsssReceiver rx;
    const auto r = rx.receive(offset);
    ASSERT_TRUE(r.has_value()) << "cfo " << cfo;
    EXPECT_EQ(r->psdu, psdu) << "cfo " << cfo;
  }
}

TEST(Robustness, DsssBreaksUnderLargeCfo) {
  // A large uncorrected CFO rotates consecutive symbols by more than the
  // DQPSK decision region (pi/4 per symbol at ~344 kHz): decoding must fail
  // rather than return corrupted-but-valid frames.
  wifi::DsssTxConfig txcfg;
  txcfg.rate = wifi::DsssRate::k2Mbps;
  const wifi::DsssTransmitter tx(txcfg);
  const phy::Bytes psdu(31, 0x77);
  const auto frame = tx.modulate(psdu);
  const CVec offset = channel::apply_cfo(frame.baseband, 400e3, 11e6);
  const wifi::DsssReceiver rx;
  const auto r = rx.receive(offset);
  if (r.has_value() && r->header_ok) {
    EXPECT_NE(r->psdu, psdu);  // never silently correct
  }
}

TEST(Robustness, OfdmPilotsCorrectResidualPhase) {
  wifi::OfdmTxConfig txcfg;
  txcfg.rate = wifi::OfdmRate::k24;
  const wifi::OfdmTransmitter tx(txcfg);
  const phy::Bytes psdu = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  const auto t = tx.transmit(psdu);
  // ~300 Hz residual CFO at 20 Msps: a slow phase drift the pilots absorb.
  const CVec drift = channel::apply_cfo(t.baseband, 300.0, 20e6);
  const wifi::OfdmReceiver rx;
  const auto r = rx.receive(drift);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->signal_ok);
  for (std::size_t i = 0; i < psdu.size(); ++i) EXPECT_EQ(r->psdu[i], psdu[i]);
}

// --- wrong-seed downlink ---------------------------------------------------------

TEST(Robustness, AmDownlinkNeedsTheRightSeed) {
  // Encoding against seed A while the transmitter scrambles with seed B
  // destroys the constant-OFDM structure: the message must not decode.
  wifi::AmDownlinkConfig cfg;
  cfg.scrambler_seed = 0x11;
  wifi::AmDownlinkEncoder enc(cfg, 5);
  const phy::Bits msg = {1, 0, 1, 1, 0, 1, 0, 0};
  const wifi::AmFrame frame = enc.encode(msg);

  // The tag's peak detector, fed the unattenuated waveform.
  backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = -90.0;
  const backscatter::PeakDetector pd(pdc);
  const auto decode = [&](const CVec& baseband) {
    return pd.decode_am(baseband, 400, wifi::kSymbolSamples, msg.size());
  };
  // Control: the encoder's own frame (right seed) decodes exactly.
  EXPECT_EQ(decode(frame.tx.baseband), msg);

  // Re-transmit the same data bits through a chipset using a different seed.
  wifi::OfdmTxConfig txcfg;
  txcfg.rate = cfg.rate;
  txcfg.scrambler_seed = 0x2E;  // wrong
  const wifi::OfdmTransmitter tx(txcfg);
  const auto wrong = tx.transmit_data_bits(frame.data_field_bits);

  const phy::Bits r = decode(wrong.baseband);
  ASSERT_EQ(r.size(), msg.size());
  EXPECT_GT(phy::hamming_distance(r, msg), 0u);
}

TEST(Robustness, RandomSeedChipsetBreaksDownlink) {
  core::DownlinkScenario s;
  s.chipset = wifi::generic_random();
  s.distance_m = 2.0;
  // The encoder guesses a seed; the chipset picks another at random. Over
  // several frames, at least one must fail (126/127 mismatch chance each).
  std::size_t failures = 0;
  for (int i = 0; i < 4; ++i) {
    s.seed = 100 + i;
    const auto r = core::simulate_downlink(s, phy::Bits(16, 1));
    failures += (r.ber > 0.1);
  }
  EXPECT_GT(failures, 0u);
}

// --- detuned tag network -----------------------------------------------------------

namespace {

/// Synthesizes, adds channel noise at `snr_db`, downconverts and decodes.
bool decodes_cleanly(const backscatter::ImpedanceNetwork& network, Real snr_db,
                     std::uint64_t seed) {
  backscatter::WifiSynthConfig cfg;
  cfg.rate = wifi::DsssRate::k2Mbps;
  cfg.network = network;
  const phy::Bytes psdu(31, 0x3C);
  const auto synth = backscatter::synthesize_wifi(psdu, cfg);

  CVec shifted = channel::apply_cfo(synth.waveform, -cfg.shift_hz,
                                    cfg.sample_rate_hz);
  CVec chips(shifted.size() / 13);
  for (std::size_t i = 0; i < chips.size(); ++i) {
    dsp::Complex acc{0, 0};
    for (std::size_t k = 0; k < 13; ++k) acc += shifted[i * 13 + k];
    chips[i] = acc / 13.0;
  }
  dsp::Xoshiro256 rng(dsp::splitmix64(seed));
  const CVec noisy = channel::add_noise_snr(chips, snr_db, rng);
  const wifi::DsssReceiver rx;
  const auto r = rx.receive(noisy);
  return r.has_value() && r->header_ok && r->psdu == psdu;
}

}  // namespace

TEST(Robustness, SingleCollapsedStateIsTolerated) {
  // One stuck switch state only rotates/attenuates the despread symbols by
  // a constant amount — Barker averaging plus differential decoding absorb
  // it even at moderate SNR. A real design property worth pinning: the tag
  // degrades gracefully.
  backscatter::ImpedanceNetwork one_bad = backscatter::ideal_network();
  one_bad.loads[1] = one_bad.loads[0];  // state 1 stuck at state 0
  EXPECT_TRUE(decodes_cleanly(one_bad, 15.0, 303));
}

TEST(Robustness, TwoCollapsedStatePairsDegradeToDsb) {
  // Collapsing to two states does NOT destroy the data — the QPSK phases
  // survive in the timing of the binary switching waveform (classic 2-state
  // backscatter PSK, and why prior DSB designs worked at all). What is lost
  // is single-sideband operation: the mirror image reappears. This pins the
  // paper's actual claim — SSB's win is spectral efficiency, not
  // decodability.
  backscatter::ImpedanceNetwork two_bad = backscatter::ideal_network();
  two_bad.loads[1] = two_bad.loads[0];
  two_bad.loads[3] = two_bad.loads[2];
  EXPECT_TRUE(decodes_cleanly(two_bad, 15.0, 304));

  backscatter::WifiSynthConfig cfg;
  cfg.network = two_bad;
  const auto synth = backscatter::synthesize_wifi(phy::Bytes(31, 0x3C), cfg);
  const auto psd = dsp::welch_psd(synth.waveform, cfg.sample_rate_hz);
  const Real collapsed_rej = dsp::sideband_rejection_db(
      psd, 35.75e6 - 11e6, 35.75e6 + 11e6, -35.75e6 - 11e6, -35.75e6 + 11e6);

  backscatter::WifiSynthConfig good;
  const auto good_synth = backscatter::synthesize_wifi(phy::Bytes(31, 0x3C), good);
  const auto good_psd = dsp::welch_psd(good_synth.waveform, good.sample_rate_hz);
  const Real good_rej = dsp::sideband_rejection_db(
      good_psd, 35.75e6 - 11e6, 35.75e6 + 11e6, -35.75e6 - 11e6, -35.75e6 + 11e6);

  EXPECT_LT(std::abs(collapsed_rej), 3.0);  // mirror is back
  EXPECT_GT(good_rej, 15.0);                // healthy network suppresses it
}

// --- timing ---------------------------------------------------------------------

TEST(Robustness, GuardIntervalAbsorbsSmallTimingError) {
  ble::SingleToneSpec spec;
  const auto tone = ble::make_single_tone_packet(spec);
  backscatter::TagConfig cfg;
  cfg.wifi.rate = wifi::DsssRate::k2Mbps;
  cfg.timing_error_us = 3.0;  // inside the 4 us guard design margin
  const backscatter::InterscatterTag tag(cfg);
  const auto plan = tag.plan(tone.packet, phy::Bytes(30, 1));
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->fits_window);
}

TEST(Robustness, WindowAccountingIsExact) {
  // A frame that exactly fills the remaining window passes; one more
  // microsecond of timing error fails it.
  ble::SingleToneSpec spec;
  const auto tone = ble::make_single_tone_packet(spec);
  backscatter::TagConfig cfg;
  cfg.wifi.rate = wifi::DsssRate::k11Mbps;
  const backscatter::InterscatterTag tag(cfg);

  // Find the exact largest payload.
  std::size_t largest = 0;
  for (std::size_t n = 1; n < 240; ++n) {
    const auto p = tag.plan(tone.packet, phy::Bytes(n, 2));
    if (p && p->fits_window) largest = n;
  }
  ASSERT_GT(largest, 0u);

  backscatter::TagConfig late = cfg;
  late.timing_error_us = 10.0;
  const backscatter::InterscatterTag late_tag(late);
  const auto p = late_tag.plan(tone.packet, phy::Bytes(largest, 2));
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->fits_window);
}

// --- fading statistics -------------------------------------------------------------

TEST(Robustness, RicianMeanPowerIsUnity) {
  dsp::Xoshiro256 rng(77);
  channel::RicianFading f{.k_factor = 4.0};
  Real acc = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) acc += f.sample_power_gain(rng);
  EXPECT_NEAR(acc / n, 1.0, 0.05);
}

TEST(Robustness, LowerKFactorFadesDeeper) {
  dsp::Xoshiro256 rng(78);
  channel::RicianFading rayleigh{.k_factor = 0.01};
  channel::RicianFading strong_los{.k_factor = 10.0};
  int deep_rayleigh = 0;
  int deep_los = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    deep_rayleigh += (rayleigh.sample_power_gain(rng) < 0.1);
    deep_los += (strong_los.sample_power_gain(rng) < 0.1);
  }
  EXPECT_GT(deep_rayleigh, 10 * std::max(deep_los, 1));
}

TEST(Robustness, TwoHopFadeHasHeavierTailThanOneHop) {
  dsp::Xoshiro256 rng(79);
  channel::RicianFading hop{.k_factor = 4.0};
  int deep_single = 0;
  int deep_double = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    deep_single += (hop.sample_power_gain(rng) < 0.2);
    deep_double += (channel::backscatter_fade_power_gain(hop, hop, rng) < 0.2);
  }
  EXPECT_GT(deep_double, deep_single);
}

TEST(Robustness, ShadowingIsZeroMean) {
  dsp::Xoshiro256 rng(80);
  channel::ShadowingModel m{.sigma_db = 6.0};
  Real acc = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) acc += m.sample_db(rng);
  EXPECT_NEAR(acc / n, 0.0, 0.15);
}

// --- Monte-Carlo PER engine ----------------------------------------------------------

TEST(Robustness, MonteCarloPerMonotone) {
  core::MonteCarloConfig cfg;
  cfg.trials_per_point = 15;
  const auto pts = core::per_vs_snr(cfg, {-2.0, 2.0, 8.0});
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_GE(pts[0].per_monte_carlo, pts[1].per_monte_carlo);
  EXPECT_GE(pts[1].per_monte_carlo, pts[2].per_monte_carlo);
  EXPECT_LT(pts[2].per_monte_carlo, 0.2);
}

TEST(Robustness, MonteCarloMatchesClosedFormWaterfall) {
  // Both curves should transition from ~1 to ~0 within the same few-dB
  // window (the ablation bench plots the detail).
  core::MonteCarloConfig cfg;
  cfg.trials_per_point = 20;
  const auto pts = core::per_vs_snr(cfg, {-6.0, 6.0});
  EXPECT_GT(pts[0].per_monte_carlo, 0.9);
  EXPECT_GT(pts[0].per_closed_form, 0.9);
  EXPECT_LT(pts[1].per_monte_carlo, 0.1);
  EXPECT_LT(pts[1].per_closed_form, 0.1);
}

}  // namespace
}  // namespace itb
