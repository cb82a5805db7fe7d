// RF impairment chain + receiver synchronization tests: determinism of the
// counter-based substreams, per-stage sanity, the ISSUE-4 acceptance
// criteria (OFDM at +-40 ppm tag CFO; thread-count-invariant Monte Carlo
// with impairments), and receiver sync behaviour under offsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "channel/awgn.h"
#include "channel/impairments.h"
#include "core/interscatter.h"
#include "core/monte_carlo.h"
#include "dsp/mixer.h"
#include "dsp/rng.h"
#include "dsp/spectrum.h"
#include "dsp/units.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "wifi/ofdm_rx.h"
#include "wifi/ofdm_tx.h"
#include "zigbee/frame.h"

namespace itb {
namespace {

using dsp::Complex;
using dsp::CVec;
using dsp::Real;

CVec test_tone(std::size_t n) {
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real ph = dsp::kTwoPi * 0.01 * static_cast<Real>(i);
    x[i] = Complex{std::cos(ph), std::sin(ph)};
  }
  return x;
}

// --- determinism contract -------------------------------------------------

TEST(ImpairmentChain, SameSeedStreamBitIdentical) {
  channel::ImpairmentConfig cfg = channel::implant_tissue_preset(11e6);
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(2048);
  const CVec a = chain.apply(x, 42, 7);
  const CVec b = chain.apply(x, 42, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b[i].real());
    EXPECT_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(ImpairmentChain, DistinctStreamsDiffer) {
  channel::ImpairmentConfig cfg = channel::implant_tissue_preset(11e6);
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(2048);
  const CVec a = chain.apply(x, 42, 0);
  const CVec b = chain.apply(x, 42, 1);
  Real diff = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    diff += std::abs(a[i] - b[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(ImpairmentChain, SubstreamSeedsDecorrelated) {
  // Neighbouring (stream, stage) pairs must land far apart.
  const auto a = channel::impairment_substream(1, 0, 1);
  const auto b = channel::impairment_substream(1, 1, 1);
  const auto c = channel::impairment_substream(1, 0, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

// --- per-stage sanity -----------------------------------------------------

TEST(ImpairmentChain, CfoStageShiftsSpectrum) {
  channel::ImpairmentConfig cfg;
  cfg.carrier_hz = 2.437e9;
  cfg.sample_rate_hz = 1e6;
  cfg.cfo_ppm = 40.0;  // ~97.5 kHz
  const channel::ImpairmentChain chain(cfg);
  const CVec x = dsp::tone(0.0, 1e6, 8192);
  const CVec y = chain.apply(x, 5);
  const auto psd = dsp::welch_psd(y, 1e6);
  EXPECT_NEAR(dsp::peak_frequency_hz(psd), chain.cfo_hz(), 2 * psd.bin_hz);
  EXPECT_NEAR(chain.cfo_hz(), 97.48e3, 100.0);
}

TEST(ImpairmentChain, QuantizationAddsBoundedError) {
  channel::ImpairmentConfig cfg;
  cfg.adc_bits = 6;
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(4096);
  const CVec y = chain.apply_frontend(x);
  Real err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) err += std::norm(y[i] - x[i]);
  err /= static_cast<Real>(x.size());
  EXPECT_GT(err, 0.0);
  // 6 bits at 12 dB headroom: error well below signal power, above 1e-6.
  EXPECT_LT(err, 0.1 * dsp::mean_power(x));
  EXPECT_GT(err, 1e-6 * dsp::mean_power(x));
}

TEST(ImpairmentChain, MultipathPreservesMeanPowerAcrossDraws) {
  channel::ImpairmentConfig cfg;
  channel::MultipathConfig mp;
  mp.num_taps = 3;
  mp.delay_spread_s = 100e-9;
  mp.k_factor = 4.0;
  cfg.multipath = mp;
  cfg.sample_rate_hz = 11e6;
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(512);
  const Real p_in = dsp::mean_power(x);
  Real acc = 0.0;
  constexpr int kDraws = 400;
  for (int d = 0; d < kDraws; ++d) {
    acc += dsp::mean_power(chain.apply_channel(x, 99, static_cast<std::uint64_t>(d)));
  }
  EXPECT_NEAR(acc / kDraws / p_in, 1.0, 0.15);
}

// The carrier stage advances a phasor by recurrence and re-anchors it every
// 64 samples; these pin it to the exact phase it stands for. The initial
// phase is the first uniform of the stage-2 substream.

/// Largest |y[i] - x[i] e^{j phase(i)}| and largest ||y[i]|/|x[i]| - 1|.
template <typename Phase>
std::pair<Real, Real> phasor_error(const CVec& x, const CVec& y, Phase phase) {
  Real err = 0.0;
  Real mag = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real ph = phase(i);
    const Complex ref = x[i] * Complex{std::cos(ph), std::sin(ph)};
    err = std::max(err, std::abs(y[i] - ref));
    mag = std::max(mag, std::abs(std::abs(y[i]) / std::abs(x[i]) - 1.0));
  }
  return {err, mag};
}

TEST(ImpairmentChain, CfoRecurrenceTracksExactPhasor) {
  channel::ImpairmentConfig cfg;
  cfg.sample_rate_hz = 11e6;
  cfg.cfo_ppm = 40.0;
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(100000);
  const CVec y = chain.apply_channel(x, 3, 9);
  ASSERT_EQ(y.size(), x.size());
  dsp::Xoshiro256 rng(channel::impairment_substream(3, 9, 2));
  const Real phi0 = rng.uniform(0.0, dsp::kTwoPi);
  const Real step = dsp::kTwoPi * chain.cfo_hz() / cfg.sample_rate_hz;
  const auto [err, mag] = phasor_error(
      x, y, [&](std::size_t i) { return phi0 + static_cast<Real>(i) * step; });
  EXPECT_LT(err, 1e-12);
  EXPECT_LT(mag, 1e-13);
}

TEST(ImpairmentChain, PhaseNoiseRecurrenceTracksWienerWalk) {
  // Same check with phase noise on: the phase is phi0 + i*step + theta_i,
  // theta_i the sum of the first i increments sigma*g. The chain and this
  // reference each round that three-term sum once per anchor or sample; at
  // up to ~5.6e3 rad (ulp 9.1e-13) they may differ by three half-ulps
  // each, hence 3e-12 here against the CFO-only test's 1e-12.
  channel::ImpairmentConfig cfg;
  cfg.sample_rate_hz = 11e6;
  cfg.cfo_ppm = 40.0;
  cfg.phase_noise_linewidth_hz = 200.0;
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(100000);
  const CVec y = chain.apply_channel(x, 3, 9);
  ASSERT_EQ(y.size(), x.size());
  dsp::Xoshiro256 rng(channel::impairment_substream(3, 9, 2));
  const Real phi0 = rng.uniform(0.0, dsp::kTwoPi);
  const Real step = dsp::kTwoPi * chain.cfo_hz() / cfg.sample_rate_hz;
  const Real sigma = std::sqrt(dsp::kTwoPi * 200.0 / cfg.sample_rate_hz);
  Real theta = 0.0;
  const auto [err, mag] = phasor_error(x, y, [&](std::size_t i) {
    const Real ph = phi0 + static_cast<Real>(i) * step + theta;
    theta += sigma * rng.gaussian();
    return ph;
  });
  EXPECT_LT(err, 3e-12);
  EXPECT_LT(mag, 1e-13);
}

TEST(ImpairmentChain, SroShiftsSamplingInstants) {
  channel::ImpairmentConfig cfg;
  cfg.sro_ppm = 1000.0;  // exaggerated so the drift is visible
  const channel::ImpairmentChain chain(cfg);
  const CVec x = test_tone(100000);
  const CVec y = chain.apply_channel(x, 1);
  // The internal tail pad keeps the output length (no frame-end clipping)...
  EXPECT_LE(y.size() > x.size() ? y.size() - x.size() : x.size() - y.size(),
            2u);
  // ...while the fast receiver clock reads later and later input positions:
  // sample 90000 lands exactly on input position 90000 * 1.001 = 90090.
  ASSERT_GT(y.size(), 90000u);
  EXPECT_NEAR(y[90000].real(), x[90090].real(), 1e-12);
  EXPECT_NEAR(y[90000].imag(), x[90090].imag(), 1e-12);
}

// --- typed frequency offset (ppm/Hz unification) --------------------------

TEST(FrequencyOffset, PpmAndHzAgree) {
  const auto off = channel::FrequencyOffset::from_ppm(40.0, 2.44e9);
  EXPECT_NEAR(off.hz(), 97.6e3, 1.0);
  EXPECT_NEAR(off.ppm(2.44e9), 40.0, 1e-9);
  EXPECT_NEAR(channel::FrequencyOffset::from_hz(off.hz()).hz(), off.hz(), 0.0);
}

// --- OFDM receiver synchronization (acceptance criterion) -----------------

double ofdm_per_at_cfo(Real cfo_ppm, std::size_t trials, Real snr_db) {
  wifi::OfdmTxConfig txcfg;
  txcfg.rate = wifi::OfdmRate::k24;
  const wifi::OfdmTransmitter tx(txcfg);
  const wifi::OfdmReceiver rx;

  channel::ImpairmentConfig imp;
  imp.carrier_hz = 2.48e9;  // worst-case 2.4 GHz ISM carrier
  imp.sample_rate_hz = 20e6;
  imp.cfo_ppm = cfo_ppm;
  const channel::ImpairmentChain chain(imp);

  std::size_t failures = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    dsp::Xoshiro256 rng(core::trial_seed(777, static_cast<std::uint64_t>(
                                                  cfo_ppm >= 0 ? 1 : 2),
                                         t));
    phy::Bytes psdu(40);
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto frame = tx.transmit(psdu);
    CVec wave = chain.apply_channel(frame.baseband, 777, t);
    wave = channel::add_noise_snr(wave, snr_db, rng);
    const auto r = rx.receive(wave);
    const bool ok = r.has_value() && r->signal_ok &&
                    r->psdu.size() >= psdu.size() &&
                    std::equal(psdu.begin(), psdu.end(), r->psdu.begin());
    failures += ok ? 0 : 1;
  }
  return static_cast<double>(failures) / static_cast<double>(trials);
}

TEST(OfdmSync, DecodesAtPlusMinus40PpmWithin2xOfZeroOffsetPer) {
  constexpr std::size_t kTrials = 40;
  const double per0 = ofdm_per_at_cfo(0.0, kTrials, 20.0);
  const double per_plus = ofdm_per_at_cfo(40.0, kTrials, 20.0);
  const double per_minus = ofdm_per_at_cfo(-40.0, kTrials, 20.0);
  // Acceptance: PER at +-40 ppm within 2x of the zero-offset PER at 20 dB
  // SNR (one-trial quantization slack for finite kTrials).
  const double slack = 1.0 / kTrials;
  EXPECT_LE(per_plus, 2.0 * per0 + slack)
      << "per0 " << per0 << " per+40ppm " << per_plus;
  EXPECT_LE(per_minus, 2.0 * per0 + slack)
      << "per0 " << per0 << " per-40ppm " << per_minus;
}

TEST(OfdmSync, CfoEstimateIsAccurate) {
  wifi::OfdmTxConfig txcfg;
  const wifi::OfdmTransmitter tx(txcfg);
  const phy::Bytes psdu = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto frame = tx.transmit(psdu);
  for (const Real cfo_hz : {-99e3, -40e3, 10e3, 99e3}) {
    const CVec wave = channel::apply_cfo(frame.baseband, cfo_hz, 20e6);
    const wifi::OfdmReceiver rx;
    const auto r = rx.receive(wave);
    ASSERT_TRUE(r.has_value()) << "cfo " << cfo_hz;
    EXPECT_NEAR(r->cfo_est_hz, cfo_hz, 2e3) << "cfo " << cfo_hz;
    EXPECT_EQ(r->psdu.size() >= psdu.size(), true);
    EXPECT_TRUE(std::equal(psdu.begin(), psdu.end(), r->psdu.begin()));
  }
}

// --- DSSS receiver synchronization ----------------------------------------

TEST(DsssSync, SurvivesTagOscillatorCfo) {
  wifi::DsssTxConfig txcfg;
  txcfg.rate = wifi::DsssRate::k2Mbps;
  const wifi::DsssTransmitter tx(txcfg);
  const phy::Bytes psdu(31, 0x5C);
  const auto frame = tx.modulate(psdu);
  for (const Real ppm : {-40.0, 40.0}) {
    const auto off = channel::FrequencyOffset::from_ppm(ppm, 2.462e9);
    dsp::Xoshiro256 rng(61);
    CVec wave = channel::apply_cfo(frame.baseband, off.hz(), 11e6);
    wave = channel::add_noise_snr(wave, 15.0, rng);
    const wifi::DsssReceiver rx;
    const auto r = rx.receive(wave);
    ASSERT_TRUE(r.has_value()) << "ppm " << ppm;
    EXPECT_EQ(r->psdu, psdu) << "ppm " << ppm;
    EXPECT_NEAR(r->cfo_est_hz, off.hz(), 5e3) << "ppm " << ppm;
  }
}

TEST(DsssSync, CckRatesSurviveCfo) {
  wifi::DsssTxConfig txcfg;
  txcfg.rate = wifi::DsssRate::k11Mbps;
  const wifi::DsssTransmitter tx(txcfg);
  const phy::Bytes psdu(60, 0xA3);
  const auto frame = tx.modulate(psdu);
  const auto off = channel::FrequencyOffset::from_ppm(30.0, 2.462e9);
  const CVec wave = channel::apply_cfo(frame.baseband, off.hz(), 11e6);
  const wifi::DsssReceiver rx;
  const auto r = rx.receive(wave);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->psdu, psdu);
}

// --- ZigBee noncoherent despreading ---------------------------------------

TEST(ZigbeeSync, SurvivesStaticRotationAndCfo) {
  const zigbee::Bytes payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  const auto tx = zigbee::zigbee_transmit(payload);
  const Real fs = zigbee::kSampleRateHz;
  // Arbitrary static rotation plus a 40 ppm-class carrier offset.
  for (const Real cfo_hz : {0.0, 40e3, -60e3}) {
    const CVec wave = channel::apply_cfo(tx.baseband, cfo_hz, fs, 1.234);
    const auto r = zigbee::zigbee_receive(wave);
    ASSERT_TRUE(r.has_value()) << "cfo " << cfo_hz;
    EXPECT_TRUE(r->fcs_ok) << "cfo " << cfo_hz;
    EXPECT_EQ(r->payload, payload) << "cfo " << cfo_hz;
  }
}

// --- Monte Carlo with impairments (acceptance criterion) ------------------

TEST(MonteCarloImpaired, BitIdenticalAcrossThreadCounts) {
  core::MonteCarloConfig cfg;
  cfg.trials_per_point = 12;
  cfg.impairments = channel::implant_tissue_preset(11e6, 2.462e9);
  const std::vector<double> grid = {2.0, 8.0, 14.0};

  std::vector<std::vector<core::PerPoint>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::MonteCarloConfig c = cfg;
    c.num_threads = threads;
    runs.push_back(core::per_vs_snr(c, grid));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t p = 0; p < runs[0].size(); ++p) {
      EXPECT_EQ(runs[r][p].per_monte_carlo, runs[0][p].per_monte_carlo)
          << "thread run " << r << " point " << p;
    }
  }
}

TEST(MonteCarloImpaired, ImpairmentsRaisePerMidWaterfall) {
  core::MonteCarloConfig clean;
  clean.trials_per_point = 25;
  core::MonteCarloConfig dirty = clean;
  channel::ImpairmentConfig imp;
  imp.sample_rate_hz = 11e6;
  imp.adc_bits = 3;  // harshly quantized reader
  dirty.impairments = imp;
  const std::vector<double> grid = {4.0};
  const auto a = core::per_vs_snr(clean, grid);
  const auto b = core::per_vs_snr(dirty, grid);
  EXPECT_GE(b[0].per_monte_carlo, a[0].per_monte_carlo - 1e-12);
}

// --- scenario plumbing ----------------------------------------------------

TEST(InterscatterImpaired, PresetResolvesAndFrameStillDecodesUpClose) {
  core::UplinkScenario s;
  s.tag_rx_distance_m = 1.0;
  s.impairment_preset = channel::ImpairmentPreset::kImplantTissue;
  const core::InterscatterSystem sys(s);
  const auto cfg = sys.resolved_impairments();
  ASSERT_TRUE(cfg.has_value());
  EXPECT_NEAR(cfg->cfo_ppm, 40.0, 1e-9);
  const phy::Bytes psdu(20, 0x77);
  const auto r = sys.simulate_frame(psdu);
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.payload_ok);
}

}  // namespace
}  // namespace itb
