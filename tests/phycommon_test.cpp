// Tests for bit utilities, CRC engines and the three LFSRs (BLE whitener,
// OFDM frame-synchronous scrambler, DSSS self-synchronizing scrambler).
#include <gtest/gtest.h>

#include "phycommon/bits.h"
#include "phycommon/crc.h"
#include "phycommon/lfsr.h"

namespace itb::phy {
namespace {

const Bytes kCheckInput = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};

// --- bits -------------------------------------------------------------------

TEST(Bits, LsbFirstRoundTrip) {
  const Bytes in = {0x01, 0x80, 0xAA, 0x00, 0xFF};
  EXPECT_EQ(bits_to_bytes_lsb_first(bytes_to_bits_lsb_first(in)), in);
}

TEST(Bits, LsbOrdering) {
  const Bits b = bytes_to_bits_lsb_first(Bytes{0x01});
  EXPECT_EQ(b[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(b[i], 0);
}

TEST(Bits, MsbOrdering) {
  const Bits b = bytes_to_bits_msb_first(Bytes{0x80});
  EXPECT_EQ(b[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(b[i], 0);
}

TEST(Bits, UintConversions) {
  const Bits lsb = uint_to_bits_lsb_first(0xB3, 8);
  EXPECT_EQ(bits_to_uint_lsb_first(lsb), 0xB3u);
  const Bits msb = uint_to_bits_msb_first(0xB3, 8);
  EXPECT_EQ(bits_to_uint_msb_first(msb), 0xB3u);
  // MSB-first of 0xB3 = 1011 0011.
  EXPECT_EQ(msb[0], 1);
  EXPECT_EQ(msb[1], 0);
  EXPECT_EQ(msb[2], 1);
  EXPECT_EQ(msb[3], 1);
}

TEST(Bits, HammingDistance) {
  const Bits a = {1, 0, 1, 1};
  const Bits b = {1, 1, 0, 1};
  EXPECT_EQ(hamming_distance(a, b), 2u);
}

// --- CRC --------------------------------------------------------------------

TEST(Crc, Crc32IeeeCheckValue) {
  // Standard CRC-32 check value for the ASCII digits 1-9.
  EXPECT_EQ(crc32_ieee(kCheckInput), 0xCBF43926u);
}

TEST(Crc, Crc32DetectsSingleBitError) {
  Bytes data = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  const std::uint32_t good = crc32_ieee(data);
  data[2] ^= 0x04;
  EXPECT_NE(crc32_ieee(data), good);
}

TEST(Crc, Crc16X25CheckValue) {
  // CRC-16/X-25 check value.
  EXPECT_EQ(crc16_x25(kCheckInput), 0x906E);
}

TEST(Crc, Crc16KermitStyle802154) {
  // The 802.15.4 FCS is CRC-16/KERMIT: check value 0x2189.
  EXPECT_EQ(crc16_802154(kCheckInput), 0x2189);
}

TEST(Crc, PlcpHeaderCrcMatchesGenibus) {
  // crc16_plcp is CCITT (0x1021), init 0xFFFF, ones-complement output,
  // MSB-first bits — i.e. CRC-16/GENIBUS, whose check value is 0xD64E.
  const Bits bits = bytes_to_bits_msb_first(kCheckInput);
  EXPECT_EQ(crc16_plcp(bits), 0xD64E);
}

TEST(Crc, BleCrc24Deterministic) {
  const Bits pdu = bytes_to_bits_lsb_first(Bytes{0x02, 0x07, 1, 2, 3, 4, 5, 6, 0x10});
  const std::uint32_t a = ble_crc24(pdu);
  const std::uint32_t b = ble_crc24(pdu);
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 1u << 24);
}

TEST(Crc, BleCrc24SensitiveToInitAndData) {
  const Bits pdu = bytes_to_bits_lsb_first(Bytes{0x42, 0x06, 9, 8, 7, 6, 5, 4});
  EXPECT_NE(ble_crc24(pdu, 0x555555), ble_crc24(pdu, 0xAAAAAA));
  Bits flipped = pdu;
  flipped[5] ^= 1;
  EXPECT_NE(ble_crc24(pdu), ble_crc24(flipped));
}

TEST(Crc, BleCrc24BitsAreMsbFirst) {
  const Bits pdu = bytes_to_bits_lsb_first(Bytes{0x00, 0x06, 0, 0, 0, 0, 0, 0});
  const std::uint32_t crc = ble_crc24(pdu);
  const Bits bits = ble_crc24_bits(pdu);
  ASSERT_EQ(bits.size(), 24u);
  EXPECT_EQ(bits_to_uint_msb_first(bits), crc);
}

TEST(Crc, GenericEngineMatchesCrc32) {
  // CRC-32: poly 0x04C11DB7 reflected engine, init/comp 0xFFFFFFFF.
  const CrcEngine engine(32, 0x04C11DB7, 0xFFFFFFFF, true);
  EXPECT_EQ(engine.compute_bytes(kCheckInput), 0xCBF43926u);
}

TEST(Crc, GenericEngineMatchesX25) {
  const CrcEngine engine(16, 0x1021, 0xFFFF, true);
  EXPECT_EQ(engine.compute_bytes(kCheckInput), 0x906Eu);
}

// --- BLE whitener ------------------------------------------------------------

TEST(BleWhitener, IsAnInvolution) {
  const Bits data = bytes_to_bits_lsb_first(Bytes{0x12, 0x34, 0x56, 0x78, 0x9A});
  BleWhitener w1(37), w2(37);
  EXPECT_EQ(w2.process(w1.process(data)), data);
}

TEST(BleWhitener, SequenceHasPeriod127) {
  const Bits seq = BleWhitener::sequence(38, 254);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]) << "position " << i;
  }
}

TEST(BleWhitener, SequenceIsBalancedOverOnePeriod) {
  // A maximal-length 7-bit LFSR emits 64 ones and 63 zeros per period.
  const Bits seq = BleWhitener::sequence(37, 127);
  std::size_t ones = 0;
  for (auto b : seq) ones += b;
  EXPECT_EQ(ones, 64u);
}

TEST(BleWhitener, DifferentChannelsGiveDifferentSequences) {
  const Bits a = BleWhitener::sequence(37, 64);
  const Bits b = BleWhitener::sequence(38, 64);
  const Bits c = BleWhitener::sequence(39, 64);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST(BleWhitener, MatchesIndependentGaloisImplementation) {
  // Independent re-implementation: 7-bit register, bit6..bit0, init
  // bit6 = 1, bit5..bit0 = channel (MSB at bit5). Output = bit0? No: the
  // spec's position 6 output maps to the LSB of a value register where
  // position 0 is the MSB. Model positions as an explicit array, feedback
  // into position 0, XOR into position 4 — the same structure written
  // differently (shift direction inverted).
  const auto reference = [](unsigned ch, std::size_t n) {
    Bits out(n);
    unsigned pos[7];
    pos[0] = 1;
    for (int i = 0; i < 6; ++i) pos[1 + i] = (ch >> (5 - i)) & 1;
    for (std::size_t k = 0; k < n; ++k) {
      const unsigned fb = pos[6];
      out[k] = fb;
      unsigned next[7];
      next[0] = fb;
      for (int i = 1; i < 7; ++i) next[i] = pos[i - 1];
      next[4] ^= fb;
      std::copy(next, next + 7, pos);
    }
    return out;
  };
  for (unsigned ch : {0u, 1u, 37u, 38u, 39u, 20u}) {
    EXPECT_EQ(BleWhitener::sequence(ch, 100), reference(ch, 100)) << "ch " << ch;
  }
}

// --- OFDM scrambler ----------------------------------------------------------

TEST(OfdmScrambler, Period127) {
  const Bits seq = OfdmScrambler::sequence(0x7F, 254);
  for (std::size_t i = 0; i < 127; ++i) EXPECT_EQ(seq[i], seq[i + 127]);
}

TEST(OfdmScrambler, AllOnesSeedMatchesPilotPolarityPrefix) {
  // 802.11-2016 17.3.5.10: with the all-ones seed the generator produces the
  // 127-bit sequence whose 0->+1 / 1->-1 mapping is the pilot polarity
  // p_0.. = {1,1,1,1,-1,-1,-1,1, -1,-1,-1,-1, 1,1,-1,1 ...}.
  const Bits seq = OfdmScrambler::sequence(0x7F, 16);
  const int expect[16] = {1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(seq[i] ? -1 : 1, expect[i]) << "p_" << i;
  }
}

TEST(OfdmScrambler, ScrambleDescrambleRoundTrip) {
  const Bits data = bytes_to_bits_lsb_first(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  OfdmScrambler s1(0x35), s2(0x35);
  EXPECT_EQ(s2.process(s1.process(data)), data);
}

TEST(OfdmScrambler, SeedRecoveryFromFirstSevenBits) {
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    const Bits seq = OfdmScrambler::sequence(seed, 7);
    EXPECT_EQ(OfdmScrambler::seed_from_first_bits(seq), seed);
  }
}

TEST(OfdmScrambler, SequencesOfDifferentSeedsAreShifts) {
  // All non-zero seeds produce the same m-sequence at different phases:
  // verify seed 1's sequence appears within seed 2's doubled sequence.
  const Bits a = OfdmScrambler::sequence(1, 127);
  Bits b = OfdmScrambler::sequence(2, 254);
  bool found = false;
  for (std::size_t off = 0; off < 127 && !found; ++off) {
    found = std::equal(a.begin(), a.end(), b.begin() + off);
  }
  EXPECT_TRUE(found);
}

// --- DSSS self-synchronizing scrambler ---------------------------------------

TEST(DsssScrambler, RoundTripWithMatchingSeeds) {
  const Bits data = bytes_to_bits_lsb_first(Bytes{0xDE, 0xAD, 0xBE, 0xEF});
  DsssScrambler tx(0x6C), rx(0x6C);
  EXPECT_EQ(rx.descramble(tx.scramble(data)), data);
}

TEST(DsssScrambler, SelfSynchronizesWithWrongSeed) {
  // After 7 bits the descrambler state equals the last 7 scrambled bits,
  // regardless of its initial seed.
  Bits data(64, 1);
  DsssScrambler tx(0x6C);
  const Bits scrambled = tx.scramble(data);
  DsssScrambler rx(0x00);  // deliberately wrong
  const Bits out = rx.descramble(scrambled);
  for (std::size_t i = 7; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 1) << "bit " << i;
  }
}

TEST(DsssScrambler, ScrambledOnesLookBalanced) {
  Bits data(1024, 1);
  DsssScrambler tx(0x6C);
  const Bits scrambled = tx.scramble(data);
  std::size_t ones = 0;
  for (auto b : scrambled) ones += b;
  EXPECT_GT(ones, 400u);
  EXPECT_LT(ones, 624u);
}

}  // namespace
}  // namespace itb::phy
