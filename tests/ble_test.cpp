// Tests for the BLE substrate: channel map, advertising packets, GFSK, the
// single-tone payload solver (paper §2.2) and device profiles.
#include <gtest/gtest.h>

#include <cmath>

#include "ble/channel_map.h"
#include "ble/device_profile.h"
#include "ble/gfsk.h"
#include "ble/packet.h"
#include "ble/single_tone.h"
#include "dsp/spectrum.h"
#include "dsp/units.h"

namespace itb::ble {
namespace {

using itb::dsp::Real;

// --- channel map -------------------------------------------------------------

TEST(ChannelMap, AdvertisingChannelFrequencies) {
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(37), 2.402e9);
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(38), 2.426e9);
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(39), 2.480e9);
}

TEST(ChannelMap, DataChannelFrequencies) {
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(0), 2.404e9);
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(10), 2.424e9);
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(11), 2.428e9);
  EXPECT_DOUBLE_EQ(ChannelMap::frequency_hz(36), 2.478e9);
}

TEST(ChannelMap, AllChannelsInsideIsmBand) {
  for (unsigned ch = 0; ch < ChannelMap::kNumChannels; ++ch) {
    const Real f = ChannelMap::frequency_hz(ch);
    EXPECT_GE(f, kIsmLowHz) << "ch " << ch;
    EXPECT_LE(f, kIsmHighHz) << "ch " << ch;
  }
}

TEST(ChannelMap, AdvertisingPredicate) {
  EXPECT_TRUE(ChannelMap::is_advertising(37));
  EXPECT_TRUE(ChannelMap::is_advertising(39));
  EXPECT_FALSE(ChannelMap::is_advertising(0));
  EXPECT_FALSE(ChannelMap::is_advertising(36));
}

TEST(ChannelMap, WifiAndZigbeeGrids) {
  EXPECT_DOUBLE_EQ(wifi_channel_hz(1), 2.412e9);
  EXPECT_DOUBLE_EQ(wifi_channel_hz(6), 2.437e9);
  EXPECT_DOUBLE_EQ(wifi_channel_hz(11), 2.462e9);
  EXPECT_DOUBLE_EQ(zigbee_channel_hz(11), 2.405e9);
  EXPECT_DOUBLE_EQ(zigbee_channel_hz(14), 2.420e9);
  EXPECT_DOUBLE_EQ(zigbee_channel_hz(26), 2.480e9);
}

TEST(ChannelMap, PaperFig3Alignment) {
  // BLE 38 sits at the lower edge of Wi-Fi channel 6 (2437 +/- 11 MHz); the
  // paper's headline configuration backscatters BLE 38 into Wi-Fi channel
  // 11, a 36 MHz shift.
  EXPECT_LE(std::abs(ChannelMap::frequency_hz(38) - wifi_channel_hz(6)), 11e6);
  const Real shift = wifi_channel_hz(11) - ChannelMap::frequency_hz(38);
  EXPECT_NEAR(shift, 36e6, 1e3);
}

// --- packets -----------------------------------------------------------------

class AdvPacketAllChannels : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdvPacketAllChannels, BuildParseRoundTrip) {
  const unsigned ch = GetParam();
  AdvPacketConfig cfg;
  cfg.payload = {0x10, 0x20, 0x30, 0x40, 0x55};
  const AdvPacket pkt = build_adv_packet(cfg, ch);
  const auto parsed = parse_adv_packet(pkt.air_bits, ch);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload, cfg.payload);
  EXPECT_EQ(parsed->advertiser_address, cfg.advertiser_address);
  EXPECT_EQ(parsed->pdu_type, AdvPduType::kAdvNonconnInd);
}

INSTANTIATE_TEST_SUITE_P(Channels, AdvPacketAllChannels,
                         ::testing::Values(0u, 5u, 11u, 20u, 36u, 37u, 38u, 39u));

TEST(AdvPacket, AirStructureOffsets) {
  AdvPacketConfig cfg;
  cfg.payload.assign(31, 0xAB);
  const AdvPacket pkt = build_adv_packet(cfg, 38);
  // preamble(8) + AA(32) + header(16) + AdvA(48) = 104 bits before payload.
  EXPECT_EQ(pkt.payload_start_bit, 104u);
  EXPECT_EQ(pkt.payload_end_bit, 104u + 31 * 8);
  EXPECT_EQ(pkt.crc_start_bit, pkt.payload_end_bit);
  EXPECT_EQ(pkt.air_bits.size(), 104u + 31 * 8 + 24);
  // 47-byte packet = 376 us at LE 1M.
  EXPECT_DOUBLE_EQ(pkt.duration_us(), 376.0);
}

TEST(AdvPacket, CorruptionBreaksCrc) {
  AdvPacketConfig cfg;
  cfg.payload = {1, 2, 3};
  AdvPacket pkt = build_adv_packet(cfg, 37);
  pkt.air_bits[120] ^= 1;  // flip a payload bit
  const auto parsed = parse_adv_packet(pkt.air_bits, 37);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->crc_ok);
}

TEST(AdvPacket, WrongChannelDewhiteningFails) {
  AdvPacketConfig cfg;
  cfg.payload = {1, 2, 3, 4};
  const AdvPacket pkt = build_adv_packet(cfg, 37);
  const auto parsed = parse_adv_packet(pkt.air_bits, 38);
  // Either unparseable or CRC failure — never a clean parse.
  if (parsed.has_value()) {
    EXPECT_FALSE(parsed->crc_ok);
  }
}

TEST(AdvPacket, WrongAccessAddressRejected) {
  AdvPacketConfig cfg;
  cfg.payload = {1};
  AdvPacket pkt = build_adv_packet(cfg, 37);
  pkt.air_bits[10] ^= 1;  // corrupt the AA
  EXPECT_FALSE(parse_adv_packet(pkt.air_bits, 37).has_value());
}

TEST(DataPacket, LongPayloadExtension) {
  DataPacketConfig cfg;
  cfg.payload.assign(200, 0x77);
  cfg.channel_index = 9;
  const AdvPacket pkt = build_data_packet(cfg);
  // 2 ms-class window: 200 bytes = 1600 us of payload air time.
  EXPECT_DOUBLE_EQ(pkt.payload_window_us(), 1600.0);
  EXPECT_GT(pkt.duration_us(), 1600.0);
}

// --- GFSK ---------------------------------------------------------------------

TEST(Gfsk, ConstantAmplitude) {
  GfskModulator mod;
  const Bits bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  const itb::dsp::CVec s = mod.modulate(bits);
  for (const auto& v : s) EXPECT_NEAR(std::abs(v), 1.0, 1e-9);
}

TEST(Gfsk, DemodulatesModulatedBits) {
  GfskModulator mod;
  GfskDemodulator demod;
  Bits bits;
  itb::dsp::Xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) bits.push_back(rng.bit());
  const itb::dsp::CVec s = mod.modulate(bits);
  const Bits out = demod.demodulate(s);
  ASSERT_GE(out.size(), bits.size() - 1);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size() && i < out.size(); ++i) {
    errors += (out[i] != bits[i]);
  }
  EXPECT_LE(errors, 2u);  // edge symbols may suffer filter transients
}

TEST(Gfsk, OnesRunProducesPositiveDeviation) {
  GfskModulator mod;
  GfskDemodulator demod;
  const Bits bits(64, 1);
  const itb::dsp::CVec s = mod.modulate(bits);
  const itb::dsp::RVec freq = demod.instantaneous_frequency_hz(s);
  // Mid-run instantaneous frequency ~ +250 kHz.
  for (std::size_t i = s.size() / 4; i < 3 * s.size() / 4; ++i) {
    EXPECT_NEAR(freq[i], 250e3, 20e3) << "sample " << i;
  }
}

TEST(Gfsk, AlternatingBitsStayWithin2MhzBandwidth) {
  GfskModulator mod;
  Bits bits;
  for (int i = 0; i < 256; ++i) bits.push_back(i % 2);
  const itb::dsp::CVec s = mod.modulate(bits);
  const itb::dsp::Psd psd = itb::dsp::welch_psd(s, kGfskSampleRateHz);
  EXPECT_LT(itb::dsp::occupied_bandwidth_hz(psd, 0.99), 2.2e6);
}

// --- single tone (paper §2.2) --------------------------------------------------

class SingleToneAllAdvChannels
    : public ::testing::TestWithParam<std::tuple<unsigned, ToneSign>> {};

TEST_P(SingleToneAllAdvChannels, PayloadYieldsConstantAirBits) {
  const auto [ch, sign] = GetParam();
  SingleToneSpec spec;
  spec.channel_index = ch;
  spec.sign = sign;
  const SingleToneResult r = make_single_tone_packet(spec);
  // The whole AdvData window must be one constant run.
  EXPECT_EQ(r.tone_start_bit, r.packet.payload_start_bit);
  EXPECT_EQ(r.tone_end_bit, r.packet.payload_end_bit);
  EXPECT_DOUBLE_EQ(r.tone_duration_us(), 31 * 8.0);
  const std::uint8_t want = sign == ToneSign::kHigh ? 1 : 0;
  for (std::size_t i = r.tone_start_bit; i < r.tone_end_bit; ++i) {
    EXPECT_EQ(r.packet.air_bits[i], want) << "bit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsAndSigns, SingleToneAllAdvChannels,
    ::testing::Combine(::testing::Values(37u, 38u, 39u),
                       ::testing::Values(ToneSign::kHigh, ToneSign::kLow)));

TEST(SingleTone, PacketStillParsesWithValidCrc) {
  SingleToneSpec spec;
  spec.channel_index = 38;
  const SingleToneResult r = make_single_tone_packet(spec);
  const auto parsed = parse_adv_packet(r.packet.air_bits, 38);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload, r.payload);
}

TEST(SingleTone, AndroidConstraintShortensTone) {
  SingleToneSpec spec;
  spec.channel_index = 38;
  spec.android_api_constraint = true;
  const SingleToneResult r = make_single_tone_packet(spec);
  // Only 24 of 31 bytes are controllable: the clean tone covers at least
  // those 24 bytes but not the full 31 (the tail reverts to stack bytes).
  EXPECT_GE(r.tone_end_bit - r.tone_start_bit, 24u * 8);
  EXPECT_LT(r.tone_end_bit - r.tone_start_bit, 31u * 8);
}

TEST(SingleTone, SpectrumCollapsesToSingleTone) {
  // The paper's Fig. 9 property: random payload spreads ~1 MHz; the crafted
  // payload concentrates power at +deviation.
  GfskModulator mod;
  SingleToneSpec spec;
  spec.channel_index = 38;
  const SingleToneResult tone_pkt = make_single_tone_packet(spec);

  AdvPacketConfig rnd_cfg;
  itb::dsp::Xoshiro256 rng(3);
  for (int i = 0; i < 31; ++i) {
    rnd_cfg.payload.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
  }
  const AdvPacket random_pkt = build_adv_packet(rnd_cfg, 38);

  const auto payload_samples = [&](const AdvPacket& pkt) {
    const itb::dsp::CVec all = mod.modulate(pkt.air_bits);
    const std::size_t sps = kGfskSamplesPerSymbol;
    return itb::dsp::CVec(all.begin() + pkt.payload_start_bit * sps,
                          all.begin() + pkt.payload_end_bit * sps);
  };

  const itb::dsp::CVec tone_sig = payload_samples(tone_pkt.packet);
  const itb::dsp::CVec rand_sig = payload_samples(random_pkt);

  const itb::dsp::Psd tone_psd =
      itb::dsp::welch_psd(tone_sig, kGfskSampleRateHz);
  const itb::dsp::Psd rand_psd =
      itb::dsp::welch_psd(rand_sig, kGfskSampleRateHz);

  EXPECT_LT(itb::dsp::occupied_bandwidth_hz(tone_psd, 0.99), 200e3);
  EXPECT_GT(itb::dsp::occupied_bandwidth_hz(rand_psd, 0.99), 600e3);
  EXPECT_NEAR(itb::dsp::peak_frequency_hz(tone_psd), 250e3, 40e3);
}

// --- device profiles -----------------------------------------------------------

TEST(DeviceProfile, ProfilesAreDistinct) {
  const DeviceProfile a = ti_cc2650();
  const DeviceProfile b = galaxy_s5();
  const DeviceProfile c = moto360();
  EXPECT_LT(std::abs(a.cfo_hz), std::abs(b.cfo_hz));
  EXPECT_LT(std::abs(b.cfo_hz), std::abs(c.cfo_hz));
  EXPECT_LT(a.phase_noise_rad_rms, c.phase_noise_rad_rms);
}

TEST(DeviceProfile, CfoShiftsTone) {
  GfskModulator mod;
  const Bits bits(256, 1);
  const itb::dsp::CVec clean = mod.modulate(bits);
  DeviceProfile p = ti_cc2650();
  p.cfo_hz = 100e3;
  p.phase_noise_rad_rms = 0.0;
  itb::dsp::Xoshiro256 rng(4);
  const itb::dsp::CVec impaired =
      apply_impairments(clean, p, kGfskSampleRateHz, rng);
  const itb::dsp::Psd psd = itb::dsp::welch_psd(impaired, kGfskSampleRateHz);
  EXPECT_NEAR(itb::dsp::peak_frequency_hz(psd), 350e3, 40e3);
}

TEST(DeviceProfile, TxPowerScalesAmplitude) {
  GfskModulator mod;
  const Bits bits(32, 1);
  const itb::dsp::CVec clean = mod.modulate(bits);
  DeviceProfile p = ti_cc2650();
  p.tx_power_dbm = 20.0;
  p.phase_noise_rad_rms = 0.0;
  p.cfo_hz = 0.0;
  itb::dsp::Xoshiro256 rng(5);
  const itb::dsp::CVec loud =
      apply_impairments(clean, p, kGfskSampleRateHz, rng);
  EXPECT_NEAR(itb::dsp::mean_power(loud) / itb::dsp::mean_power(clean), 100.0, 1.0);
}

}  // namespace
}  // namespace itb::ble
