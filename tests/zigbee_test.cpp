// Tests for the 802.15.4 O-QPSK DSSS PHY and frame layer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "channel/awgn.h"
#include "dsp/rng.h"
#include "dsp/spectrum.h"
#include "zigbee/frame.h"
#include "zigbee/oqpsk.h"

namespace itb::zigbee {
namespace {

using itb::dsp::Real;

TEST(ChipTable, SixteenDistinctSequences) {
  std::set<std::uint32_t> unique(chip_table().begin(), chip_table().end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(ChipTable, LargeMinimumPairwiseDistance) {
  // The 802.15.4 quasi-orthogonal set keeps pairwise Hamming distance
  // large; the worst case across the family is well above single-chip
  // error tolerance.
  std::size_t min_dist = 32;
  const auto& t = chip_table();
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      const std::size_t d =
          static_cast<std::size_t>(__builtin_popcount(t[i] ^ t[j]));
      min_dist = std::min(min_dist, d);
    }
  }
  EXPECT_GE(min_dist, 10u);
}

TEST(ChipTable, RotationStructure) {
  // Symbols 1..7 are 4-chip rotations of symbol 0 (the spec's construction).
  const Bits s0 = symbol_chips(0);
  const Bits s1 = symbol_chips(1);
  for (std::size_t c = 0; c < kChipsPerSymbol; ++c) {
    EXPECT_EQ(s1[(c + 4) % kChipsPerSymbol], s0[c]) << "chip " << c;
  }
}

TEST(ChipTable, UpperSymbolsInvertOddChips) {
  const Bits s0 = symbol_chips(0);
  const Bits s8 = symbol_chips(8);
  for (std::size_t c = 0; c < kChipsPerSymbol; ++c) {
    if (c % 2 == 1) {
      EXPECT_NE(s8[c], s0[c]);
    } else {
      EXPECT_EQ(s8[c], s0[c]);
    }
  }
}

TEST(Oqpsk, ChipRoundTrip) {
  OqpskModulator mod;
  OqpskDemodulator demod;
  itb::dsp::Xoshiro256 rng(5);
  Bits chips(256);
  for (auto& c : chips) c = rng.bit();
  const auto samples = mod.modulate_chips(chips);
  // On-channel, each soft chip carries its bit as the sign of its branch:
  // even chips on I, odd chips on Q.
  const CVec soft = demod.soft_chips(samples);
  ASSERT_GE(soft.size(), chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const Real v = i % 2 == 0 ? soft[i].real() : soft[i].imag();
    EXPECT_EQ(v > 0.0 ? 1 : 0, chips[i]) << "chip " << i;
  }
}

TEST(Oqpsk, ByteRoundTripThroughChips) {
  OqpskModulator mod;
  OqpskDemodulator demod;
  const Bytes payload = {0x00, 0xFF, 0xA5, 0x3C, 0x77};
  const auto samples = mod.modulate_bytes(payload);
  const Bytes out = demod.soft_chips_to_bytes(demod.soft_chips(samples));
  ASSERT_GE(out.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(out[i], payload[i]) << "byte " << i;
  }
}

TEST(Oqpsk, ChipErrorsToleratedBySpreading) {
  OqpskModulator mod;
  OqpskDemodulator demod;
  const Bytes payload = {0x12, 0x34, 0x56};
  const auto samples = mod.modulate_bytes(payload);
  CVec soft = demod.soft_chips(samples);
  // Flip 4 chips in each 32-chip symbol by negating their soft values:
  // still decodable (min distance >= 10).
  for (std::size_t s = 0; s * kChipsPerSymbol + 28 < soft.size(); ++s) {
    for (const std::size_t c : {3, 11, 19, 27}) {
      soft[s * kChipsPerSymbol + c] = -soft[s * kChipsPerSymbol + c];
    }
  }
  const Bytes out = demod.soft_chips_to_bytes(soft);
  ASSERT_GE(out.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(out[i], payload[i]);
  }
}

TEST(Oqpsk, OccupiedBandwidthNear2Mhz) {
  OqpskModulator mod;
  itb::dsp::Xoshiro256 rng(6);
  Bytes payload(64);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const auto samples = mod.modulate_bytes(payload);
  const auto psd = itb::dsp::welch_psd(samples, kSampleRateHz);
  const Real obw = itb::dsp::occupied_bandwidth_hz(psd, 0.99);
  EXPECT_GT(obw, 1e6);
  EXPECT_LT(obw, 3.5e6);
}

TEST(Frame, PpduLayout) {
  const Bytes ppdu = build_ppdu(Bytes{0xAB, 0xCD});
  // 4 preamble + SFD + PHR + payload(2) + FCS(2).
  ASSERT_EQ(ppdu.size(), 4u + 1 + 1 + 2 + 2);
  EXPECT_EQ(ppdu[4], kSfd);
  EXPECT_EQ(ppdu[5], 4u);  // length = payload + FCS
}

TEST(Frame, TransmitReceiveRoundTrip) {
  // The frame may start anywhere in the buffer: every leading offset across
  // one symbol period (kChipsPerSymbol * kSamplesPerChip samples) decodes.
  const Bytes payload = {'z', 'i', 'g', 'b', 'e', 'e', '!', 0x00, 0xFF};
  const ZigbeeTxResult tx = zigbee_transmit(payload);
  for (std::size_t offset = 0; offset < kChipsPerSymbol * kSamplesPerChip;
       ++offset) {
    CVec delayed(offset);
    delayed.insert(delayed.end(), tx.baseband.begin(), tx.baseband.end());
    const auto rx = zigbee_receive(delayed);
    ASSERT_TRUE(rx.has_value()) << "offset " << offset;
    EXPECT_TRUE(rx->fcs_ok) << "offset " << offset;
    EXPECT_EQ(rx->payload, payload) << "offset " << offset;
  }
}

TEST(Frame, ReceiveWithNoise) {
  const Bytes payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const ZigbeeTxResult tx = zigbee_transmit(payload);
  itb::dsp::Xoshiro256 rng(7);
  const auto noisy = itb::channel::add_noise_snr(tx.baseband, 6.0, rng);
  const auto rx = zigbee_receive(noisy);
  ASSERT_TRUE(rx.has_value());
  EXPECT_TRUE(rx->fcs_ok);
  EXPECT_EQ(rx->payload, payload);
}

TEST(Frame, MatchedFilterDecodesAtMinusFiveDb) {
  // At -5 dB sample SNR (-9.4 dB in 22 MHz) a receiver that integrates each
  // chip's half-sine decodes every frame; one that kept only the peak
  // sample would see 6 dB less and lose all of them. 29-B payloads (31-B
  // PSDU), fixed seeds.
  std::size_t decoded = 0;
  for (std::uint64_t seed = 1000; seed < 1050; ++seed) {
    itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(seed));
    Bytes payload(29);
    for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const ZigbeeTxResult tx = zigbee_transmit(payload);
    const auto noisy = itb::channel::add_noise_snr(tx.baseband, -5.0, rng);
    const auto rx = zigbee_receive(noisy);
    if (rx.has_value() && rx->fcs_ok && rx->payload == payload) ++decoded;
  }
  EXPECT_EQ(decoded, 50u);
}

TEST(Frame, CorruptedFcsDetected) {
  const Bytes payload = {9, 9, 9};
  ZigbeeTxResult tx = zigbee_transmit(payload);
  // Conjugate one payload symbol's samples (Q-branch inversion). That turns
  // the symbol into its valid conjugate-pair codeword (s XOR 8) — a
  // corruption no PHY detector can correct, coherent or not, because the
  // result is a legal chip sequence for a *different* nibble. Only the FCS
  // can catch it. (A plain chip inversion no longer suffices: the
  // phase-robust despreader corrects it.)
  const std::size_t spc = kSamplesPerChip;
  const std::size_t payload_start_chip = 6 * 2 * kChipsPerSymbol;  // after hdr
  const std::size_t a = payload_start_chip * spc;
  for (std::size_t i = a;
       i < a + kChipsPerSymbol * spc && i < tx.baseband.size(); ++i) {
    tx.baseband[i] = std::conj(tx.baseband[i]);
  }
  const auto rx = zigbee_receive(tx.baseband);
  if (rx.has_value()) {
    EXPECT_FALSE(rx->fcs_ok && rx->payload == payload);
  }
}

TEST(Frame, NoSignalNoDetection) {
  itb::dsp::Xoshiro256 rng(8);
  itb::dsp::CVec noise(30000);
  for (auto& v : noise) v = rng.complex_gaussian(1.0);
  EXPECT_FALSE(zigbee_receive(noise).has_value());
}

TEST(Frame, DurationAccounting) {
  const ZigbeeTxResult tx = zigbee_transmit(Bytes(10, 0x42));
  // PPDU = 4+1+1+10+2 = 18 bytes = 36 symbols at 16 us/symbol = 576 us.
  EXPECT_NEAR(tx.duration_us, 576.0, 1.0);
}

}  // namespace
}  // namespace itb::zigbee
