// Broad parameterized property sweeps: every channel, every payload size
// class, exhaustive symbol alphabets — the long-tail coverage a downstream
// user relies on.
#include <gtest/gtest.h>

#include "backscatter/tag.h"
#include "backscatter/wifi_synth.h"
#include "ble/channel_map.h"
#include "ble/packet.h"
#include "ble/single_tone.h"
#include "channel/awgn.h"
#include "channel/impairments.h"
#include "core/monte_carlo.h"
#include "dsp/rng.h"
#include "wifi/cck.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "wifi/ofdm_rx.h"
#include "wifi/ofdm_tx.h"
#include "zigbee/frame.h"

namespace itb {
namespace {

// --- BLE: every channel, every payload size -------------------------------------

class BleEveryChannel : public ::testing::TestWithParam<unsigned> {};

TEST_P(BleEveryChannel, SingleTonePayloadIsConstantOnAir) {
  // The paper uses advertising channels; the whitening construction works
  // on all 40 (data channels enable the §7 data-packet extension).
  ble::SingleToneSpec spec;
  spec.channel_index = GetParam();
  const auto r = ble::make_single_tone_packet(spec);
  EXPECT_EQ(r.tone_end_bit - r.tone_start_bit, 31u * 8);
}

TEST_P(BleEveryChannel, PacketRoundTripsThroughWhitening) {
  ble::AdvPacketConfig cfg;
  cfg.payload = {0xDE, 0xAD, static_cast<std::uint8_t>(GetParam())};
  const auto pkt = ble::build_adv_packet(cfg, GetParam());
  const auto parsed = ble::parse_adv_packet(pkt.air_bits, GetParam());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload, cfg.payload);
}

INSTANTIATE_TEST_SUITE_P(AllChannels, BleEveryChannel,
                         ::testing::Range(0u, 40u));

class BlePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlePayloadSizes, AnyAdvDataLengthRoundTrips) {
  ble::AdvPacketConfig cfg;
  cfg.payload.assign(GetParam(), 0x5A);
  const auto pkt = ble::build_adv_packet(cfg, 37);
  const auto parsed = ble::parse_adv_packet(pkt.air_bits, 37);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlePayloadSizes,
                         ::testing::Values(0u, 1u, 2u, 15u, 30u, 31u));

// --- Wi-Fi DSSS: payload size sweep ----------------------------------------------

class DsssPayloadSizes
    : public ::testing::TestWithParam<std::tuple<wifi::DsssRate, std::size_t>> {};

TEST_P(DsssPayloadSizes, RoundTrip) {
  const auto [rate, size] = GetParam();
  wifi::DsssTxConfig cfg;
  cfg.rate = rate;
  const wifi::DsssTransmitter tx(cfg);
  dsp::Xoshiro256 rng(static_cast<std::uint64_t>(size) * 31 + 7);
  phy::Bytes psdu(size);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const auto frame = tx.modulate(psdu);
  const wifi::DsssReceiver rx;
  const auto r = rx.receive(frame.baseband);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(
    RateBySize, DsssPayloadSizes,
    ::testing::Combine(::testing::Values(wifi::DsssRate::k2Mbps,
                                         wifi::DsssRate::k11Mbps),
                       ::testing::Values(1u, 14u, 38u, 104u, 209u, 500u)));

// --- CCK: exhaustive symbol alphabet ----------------------------------------------

TEST(CckExhaustive, All256ElevenMbpsSymbolsRoundTrip) {
  // Every 8-bit symbol value, preceded by a reference symbol, decodes back.
  for (unsigned v = 0; v < 256; ++v) {
    wifi::CckModulator mod(wifi::DsssRate::k11Mbps);
    wifi::CckDemodulator demod(wifi::DsssRate::k11Mbps);
    phy::Bits bits(16, 0);
    for (int b = 0; b < 8; ++b) bits[8 + b] = (v >> b) & 1;
    itb::dsp::CVec chips;
    mod.modulate(bits, chips);
    const auto out = demod.demodulate(chips);
    EXPECT_EQ(out, bits) << "symbol " << v;
  }
}

TEST(CckExhaustive, All16FiveMbpsSymbolsRoundTrip) {
  for (unsigned v = 0; v < 16; ++v) {
    wifi::CckModulator mod(wifi::DsssRate::k5_5Mbps);
    wifi::CckDemodulator demod(wifi::DsssRate::k5_5Mbps);
    phy::Bits bits(8, 0);
    for (int b = 0; b < 4; ++b) bits[4 + b] = (v >> b) & 1;
    itb::dsp::CVec chips;
    mod.modulate(bits, chips);
    const auto out = demod.demodulate(chips);
    EXPECT_EQ(out, bits) << "symbol " << v;
  }
}

// --- OFDM: seed sweep ---------------------------------------------------------------

class OfdmSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(OfdmSeedSweep, EverySeventhSeedRoundTrips) {
  const auto seed = static_cast<std::uint8_t>(GetParam());
  wifi::OfdmTxConfig cfg;
  cfg.rate = wifi::OfdmRate::k36;
  cfg.scrambler_seed = seed;
  const wifi::OfdmTransmitter tx(cfg);
  const phy::Bytes psdu = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto t = tx.transmit(psdu);
  const wifi::OfdmReceiver rx;
  const auto r = rx.receive(t.baseband);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->scrambler_seed, seed);
  for (std::size_t i = 0; i < psdu.size(); ++i) EXPECT_EQ(r->psdu[i], psdu[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfdmSeedSweep,
                         ::testing::Values(1, 8, 15, 22, 29, 36, 43, 50, 57, 64,
                                           71, 78, 85, 92, 99, 106, 113, 120, 127));

// --- ZigBee: all 16 channels have valid frequencies ----------------------------------

TEST(ZigbeeChannels, FrequencyGridInsideIsm) {
  for (unsigned ch = 11; ch <= 26; ++ch) {
    const auto f = ble::zigbee_channel_hz(ch);
    EXPECT_GE(f, ble::kIsmLowHz);
    EXPECT_LE(f, ble::kIsmHighHz + 1.0);
  }
}

TEST(ZigbeeChannels, ShiftFromBle38IsRealizable) {
  // Any ZigBee channel within +/-40 MHz of BLE 38 is reachable with the
  // tag's clocking; channel 14 (the paper's pick) needs only -6 MHz.
  const auto ble38 = ble::ChannelMap::frequency_hz(38);
  int reachable = 0;
  for (unsigned ch = 11; ch <= 26; ++ch) {
    const auto shift = ble::zigbee_channel_hz(ch) - ble38;
    reachable += (std::abs(shift) <= 40e6);
  }
  // Channels 11..23 sit within +/-40 MHz of BLE 38; 24..26 need channel 39.
  EXPECT_EQ(reachable, 13);
  EXPECT_NEAR(ble::zigbee_channel_hz(14) - ble38, -6e6, 1.0);
}

// --- §7 extension: BLE data packets enable 1 Mbps Wi-Fi end-to-end -------------------

TEST(DataPacketExtension, OneMbpsWifiFitsInDataPacketWindow) {
  // A 2 ms BLE data packet gives the tag enough window for a 1 Mbps frame
  // that could never fit in an advertisement.
  ble::DataPacketConfig dcfg;
  dcfg.payload.assign(250, 0x11);  // 2000 us window
  dcfg.channel_index = 9;
  const auto data_pkt = ble::build_data_packet(dcfg);

  backscatter::TagConfig tag_cfg;
  tag_cfg.wifi.rate = wifi::DsssRate::k1Mbps;
  const backscatter::InterscatterTag tag(tag_cfg);

  const phy::Bytes psdu(150, 0x77);  // needs 1392 us at 1 Mbps
  const auto plan = tag.plan(data_pkt, psdu);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->fits_window);

  // And the same frame is rejected against an advertising packet.
  ble::SingleToneSpec spec;
  const auto adv = ble::make_single_tone_packet(spec);
  EXPECT_FALSE(tag.plan(adv.packet, psdu).has_value());
}

TEST(DataPacketExtension, SynthesizedOneMbpsFrameDecodes) {
  backscatter::WifiSynthConfig cfg;
  cfg.rate = wifi::DsssRate::k1Mbps;
  const phy::Bytes psdu(100, 0x42);
  const auto synth = backscatter::synthesize_wifi(psdu, cfg);

  dsp::CVec shifted = channel::apply_cfo(synth.waveform, -cfg.shift_hz,
                                         cfg.sample_rate_hz);
  dsp::CVec chips(shifted.size() / 13);
  for (std::size_t i = 0; i < chips.size(); ++i) {
    dsp::Complex acc{0, 0};
    for (std::size_t k = 0; k < 13; ++k) acc += shifted[i * 13 + k];
    chips[i] = acc / 13.0;
  }
  const wifi::DsssReceiver rx;
  const auto r = rx.receive(chips);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.rate, wifi::DsssRate::k1Mbps);
  EXPECT_EQ(r->psdu, psdu);
}

// --- impairment monotonicity properties -----------------------------------------------
// PER at fixed SNR must be non-decreasing in each impairment magnitude.
// Monte-Carlo estimates carry sampling noise, so each step is allowed a
// small slack.

namespace {

double impaired_per(const std::optional<channel::ImpairmentConfig>& imp,
                    double snr_db, std::size_t trials, std::uint64_t seed) {
  core::MonteCarloConfig cfg;
  cfg.trials_per_point = trials;
  cfg.seed = seed;
  cfg.impairments = imp;
  return core::per_vs_snr(cfg, {snr_db})[0].per_monte_carlo;
}

}  // namespace

TEST(ImpairmentMonotone, PerNonDecreasingInAbsCfo) {
  // Beyond the despreader's +-250 kHz aliasing limit PER must hit the wall;
  // inside it the corrected offsets stay benign.
  double prev = -1.0;
  for (const double ppm : {0.0, 30.0, 90.0, 300.0}) {
    channel::ImpairmentConfig imp;
    imp.sample_rate_hz = 11e6;
    imp.carrier_hz = 2.462e9;
    imp.cfo_ppm = ppm;
    const double per = impaired_per(imp, 10.0, 30, 515);
    EXPECT_GE(per, prev - 0.15) << "cfo ppm " << ppm;
    prev = std::max(prev, per);
  }
  EXPECT_GT(prev, 0.5);  // the 300 ppm point is past the sync range
}

TEST(ImpairmentMonotone, PerNonDecreasingInQuantizerCoarseness) {
  double prev = -1.0;
  for (const unsigned bits : {12u, 6u, 3u, 2u}) {
    channel::ImpairmentConfig imp;
    imp.sample_rate_hz = 11e6;
    imp.adc_bits = bits;
    const double per = impaired_per(imp, 4.0, 30, 516);
    EXPECT_GE(per, prev - 0.15) << "adc bits " << bits;
    prev = std::max(prev, per);
  }
}

TEST(ImpairmentMonotone, PerNonDecreasingInDelaySpread) {
  double prev = -1.0;
  for (const double ds_ns : {0.0, 30.0, 120.0, 500.0}) {
    channel::ImpairmentConfig imp;
    imp.sample_rate_hz = 11e6;
    if (ds_ns > 0.0) {
      channel::MultipathConfig mp;
      mp.num_taps = 4;
      mp.delay_spread_s = ds_ns * 1e-9;
      mp.k_factor = 4.0;
      imp.multipath = mp;
    }
    const double per = impaired_per(imp, 12.0, 30, 517);
    EXPECT_GE(per, prev - 0.15) << "delay spread ns " << ds_ns;
    prev = std::max(prev, per);
  }
}

// --- interscatter device count scaling (§2.5) -----------------------------------------

TEST(MultiTag, DistinctTonesForDistinctChannels) {
  // Tags keyed to different BLE channels compute different payloads: the
  // single-tone trick is channel-specific, which is what lets one helper
  // serve tags on different advertising channels.
  const auto p37 = ble::single_tone_payload(37, ble::ToneSign::kHigh, 31);
  const auto p38 = ble::single_tone_payload(38, ble::ToneSign::kHigh, 31);
  const auto p39 = ble::single_tone_payload(39, ble::ToneSign::kHigh, 31);
  EXPECT_NE(p37, p38);
  EXPECT_NE(p38, p39);
}

}  // namespace
}  // namespace itb
