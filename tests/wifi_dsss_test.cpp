// Tests for the 802.11b DSSS/CCK stack: Barker, DPSK, CCK, PLCP, MAC frames
// and the full transmitter -> receiver loop at all four rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "channel/awgn.h"
#include "dsp/mixer.h"
#include "dsp/rng.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "wifi/dpsk.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "wifi/mac_frame.h"
#include "wifi/plcp.h"

namespace itb::wifi {
namespace {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;
using itb::phy::Bytes;

// --- Barker -------------------------------------------------------------------

CVec spread_all(const CVec& symbols) {
  CVec chips;
  for (const Complex& s : symbols) spread_symbol(s, chips);
  return chips;
}

TEST(Barker, SpreadDespreadRoundTrip) {
  const CVec symbols = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  const CVec chips = spread_all(symbols);
  ASSERT_EQ(chips.size(), 44u);
  const CVec back = despread(chips);
  ASSERT_EQ(back.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - symbols[i]), 0.0, 1e-12);
  }
}

TEST(Barker, AutocorrelationSidelobesAreLow) {
  // Classic Barker property: aperiodic autocorrelation sidelobes <= 1
  // against a mainlobe of 11.
  for (std::size_t shift = 1; shift < 11; ++shift) {
    int acc = 0;
    for (std::size_t i = 0; i + shift < 11; ++i) {
      acc += kBarker[i] * kBarker[i + shift];
    }
    EXPECT_LE(std::abs(acc), 1) << "shift " << shift;
  }
}

TEST(Barker, ProcessingGainAgainstNoise) {
  itb::dsp::Xoshiro256 rng(1);
  const CVec symbols(50, Complex{1.0, 0.0});
  CVec chips = spread_all(symbols);
  // 0 dB SNR at chip level.
  chips = itb::channel::add_noise_snr(chips, 0.0, rng);
  const CVec back = despread(chips);
  // Despreading should average the noise down by ~10.4 dB.
  std::size_t correct = 0;
  for (const auto& s : back) correct += (s.real() > 0.0);
  EXPECT_EQ(correct, back.size());
}

// --- DPSK ----------------------------------------------------------------------

TEST(Dpsk, DbpskRoundTrip) {
  const Bits bits = {0, 1, 1, 0, 1, 0, 0, 1};
  const CVec sym = dbpsk_encode(bits);
  const Bits out = dbpsk_decode(sym, Complex{1.0, 0.0});
  EXPECT_EQ(out, bits);
}

TEST(Dpsk, DqpskRoundTrip) {
  const Bits bits = {0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1};
  const CVec sym = dqpsk_encode(bits);
  const Bits out = dqpsk_decode(sym, Complex{1.0, 0.0});
  EXPECT_EQ(out, bits);
}

TEST(Dpsk, RotationInvariance) {
  // Differential decoding must ignore a common rotation.
  const Bits bits = {1, 0, 0, 1, 1, 1};
  CVec sym = dqpsk_encode(bits);
  const Complex rot = std::polar(1.0, 1.234);
  for (auto& s : sym) s *= rot;
  const Bits out = dqpsk_decode(sym, rot);
  EXPECT_EQ(out, bits);
}

TEST(Dpsk, PhaseIncrements) {
  // Quarter turns: 0, pi and 0, pi/2, pi, 3pi/2.
  EXPECT_EQ(dbpsk_phase_increment(0), 0u);
  EXPECT_EQ(dbpsk_phase_increment(1), 2u);
  EXPECT_EQ(dqpsk_phase_increment(0, 0), 0u);
  EXPECT_EQ(dqpsk_phase_increment(0, 1), 1u);
  EXPECT_EQ(dqpsk_phase_increment(1, 1), 2u);
  EXPECT_EQ(dqpsk_phase_increment(1, 0), 3u);
}

TEST(Dpsk, NearestQuarter) {
  EXPECT_EQ(nearest_quarter(std::polar(1.0, 0.01)), 0u);
  EXPECT_EQ(nearest_quarter(std::polar(2.0, itb::dsp::kPi / 2 - 0.01)), 1u);
  EXPECT_EQ(nearest_quarter(std::polar(0.5, -itb::dsp::kPi / 2)), 3u);
  EXPECT_EQ(nearest_quarter(std::polar(1.0, itb::dsp::kPi + 0.1)), 2u);
}

// The decisions the sign tests replace: the phase of s * conj(prev) by arg,
// folded into [0, 2pi) and rounded to a quarter turn.
unsigned arg_quarter(Real phase_rad) {
  Real p = std::fmod(phase_rad, itb::dsp::kTwoPi);
  if (p < 0) p += itb::dsp::kTwoPi;
  return static_cast<unsigned>(std::lround(p / (itb::dsp::kPi / 2.0))) % 4;
}

TEST(Dpsk, SignTestDecisionsMatchArgReference) {
  itb::dsp::Xoshiro256 rng(515);
  CVec sym(20000);
  for (auto& s : sym) s = rng.complex_gaussian(1.0);
  const Complex reference = rng.complex_gaussian(1.0);
  const Bits dbpsk = dbpsk_decode(sym, reference);
  const Bits dqpsk = dqpsk_decode(sym, reference);
  ASSERT_EQ(dbpsk.size(), sym.size());
  ASSERT_EQ(dqpsk.size(), 2 * sym.size());
  Complex prev = reference;
  for (std::size_t i = 0; i < sym.size(); ++i) {
    const Real dphi = std::arg(sym[i] * std::conj(prev));
    EXPECT_EQ(dbpsk[i], std::abs(dphi) > itb::dsp::kPi / 2.0 ? 1 : 0) << i;
    const auto dibit = dqpsk_dibit(arg_quarter(dphi));
    EXPECT_EQ(dqpsk[2 * i], dibit[0]) << i;
    EXPECT_EQ(dqpsk[2 * i + 1], dibit[1]) << i;
    // The dibit table inverts the encoder's increments.
    EXPECT_EQ(dqpsk_phase_increment(dibit[0], dibit[1]), arg_quarter(dphi));
    prev = sym[i];
  }
}

// --- Carrier phasor ---------------------------------------------------------

TEST(CarrierPhasor, MatchesPerChipRotationBothSigns) {
  // The receiver derotates by the estimated per-chip step, up to a quarter
  // turn per 11-chip symbol (+-250 kHz at 11 Mchip/s); the channel adds a
  // Wiener walk. Reference: e^{j(phi0 + i*step + theta_i)} with theta_i
  // replayed from the same draws. pn_sigma 0.0107 is the implant preset's
  // 200 Hz linewidth; at 0.1 the walk strays beyond 0.5 rad inside many
  // 64-sample anchor blocks, which pins the polynomial's range. 120
  // frames of 2,500 chips: 300k samples.
  itb::dsp::Xoshiro256 rng(616);
  CVec chips(2500);
  for (auto& c : chips) c = rng.complex_gaussian(1.0);
  std::size_t far_blocks = 0;
  for (const Real cfo_hz : {250e3, -250e3, 97e3, -41e3, 1.0}) {
    for (const Real pn_sigma : {0.0, 0.0107, 0.1}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Real phi_chip = itb::dsp::kTwoPi * cfo_hz / 11e6;
        const Real phi0 = 0.37 * static_cast<Real>(seed);
        CVec got = chips;
        itb::dsp::Xoshiro256 walk(itb::dsp::splitmix64(seed));
        itb::dsp::rotate_carrier(got, phi0, -phi_chip, pn_sigma, &walk);
        itb::dsp::Xoshiro256 replay(itb::dsp::splitmix64(seed));
        Real theta = 0.0;
        Real block_start = 0.0;
        Real worst = 0.0;
        for (std::size_t i = 0; i < chips.size(); ++i) {
          if (i % 64 == 0) block_start = theta;
          if (i % 64 == 63 && std::abs(theta - block_start) > 0.5) ++far_blocks;
          const Real phase = phi0 - phi_chip * static_cast<Real>(i) + theta;
          const Complex want = chips[i] * Complex{std::cos(phase), std::sin(phase)};
          worst = std::max(worst, std::abs(got[i] - want));
          if (pn_sigma > 0.0) theta += pn_sigma * replay.gaussian();
        }
        EXPECT_LT(worst, 1e-12) << cfo_hz << " Hz, sigma " << pn_sigma
                                << ", seed " << seed;
      }
    }
  }
  EXPECT_GT(far_blocks, 100u);
}

// --- CCK -----------------------------------------------------------------------

TEST(Cck, CodewordsAreUnitMagnitude) {
  const auto cw = cck_codeword(1, 2, 3, 1);
  for (const auto& c : cw) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Cck, Base64CodewordsAreDistinct) {
  // All 64 (p2,p3,p4) combinations at 11 Mbps must give distinct codewords.
  std::vector<std::array<Complex, 8>> words;
  for (unsigned a = 0; a < 4; ++a) {
    for (unsigned b = 0; b < 4; ++b) {
      for (unsigned c = 0; c < 4; ++c) {
        words.push_back(cck_codeword(0, a, b, c));
      }
    }
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      Real dist = 0.0;
      for (int k = 0; k < 8; ++k) dist += std::abs(words[i][k] - words[j][k]);
      EXPECT_GT(dist, 0.5) << i << " vs " << j;
    }
  }
}

class CckRoundTrip : public ::testing::TestWithParam<DsssRate> {};

TEST_P(CckRoundTrip, CleanChannel) {
  const DsssRate rate = GetParam();
  CckModulator mod(rate);
  CckDemodulator demod(rate);
  itb::dsp::Xoshiro256 rng(2);
  Bits bits;
  const std::size_t n = rate == DsssRate::k5_5Mbps ? 4 * 50 : 8 * 50;
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.bit());
  CVec chips;
  mod.modulate(bits, chips);
  const Bits out = demod.demodulate(chips);
  EXPECT_EQ(out, bits);
}

TEST_P(CckRoundTrip, NoisyChannel10Db) {
  const DsssRate rate = GetParam();
  CckModulator mod(rate);
  CckDemodulator demod(rate);
  itb::dsp::Xoshiro256 rng(3);
  Bits bits;
  const std::size_t n = rate == DsssRate::k5_5Mbps ? 4 * 100 : 8 * 100;
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.bit());
  CVec chips;
  mod.modulate(bits, chips);
  chips = itb::channel::add_noise_snr(chips, 10.0, rng);
  const Bits out = demod.demodulate(chips);
  EXPECT_EQ(itb::phy::hamming_distance(out, bits), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rates, CckRoundTrip,
                         ::testing::Values(DsssRate::k5_5Mbps, DsssRate::k11Mbps));

// Candidate v's base codeword (p1 = 0), built from the modulator's phases.
std::array<Complex, kCckChipsPerSymbol> direct_codeword(DsssRate rate,
                                                        std::size_t v) {
  const std::size_t data_bits = rate == DsssRate::k11Mbps ? 6 : 2;
  Bits bits(data_bits);
  for (std::size_t b = 0; b < data_bits; ++b) bits[b] = (v >> b) & 1;
  const auto p = CckModulator(rate).data_phases(bits);
  return cck_codeword(0, p[0], p[1], p[2]);
}

class CckQuarterTurn : public ::testing::TestWithParam<DsssRate> {};

TEST_P(CckQuarterTurn, CorrelationsMatchDirectSum) {
  const DsssRate rate = GetParam();
  const std::size_t candidates = rate == DsssRate::k11Mbps ? 64 : 4;
  std::vector<std::array<Complex, kCckChipsPerSymbol>> words;
  for (std::size_t v = 0; v < candidates; ++v) {
    words.push_back(direct_codeword(rate, v));
  }
  const CckDemodulator demod(rate);
  itb::dsp::Xoshiro256 rng(717);
  std::array<Complex, CckDemodulator::kMaxCandidates> got;
  for (int block = 0; block < 10000; ++block) {
    // A random codeword at a random phase, at 0..12 dB chip SNR.
    const auto& tx = words[rng.uniform_int(candidates)];
    const Complex gain = std::polar(1.0, rng.uniform(0.0, itb::dsp::kTwoPi));
    const Real noise = std::pow(10.0, -rng.uniform(0.0, 12.0) / 10.0);
    std::array<Complex, kCckChipsPerSymbol> r;
    for (std::size_t k = 0; k < r.size(); ++k) {
      r[k] = gain * tx[k] + rng.complex_gaussian(noise);
    }
    ASSERT_EQ(demod.correlate(r, got), candidates);
    std::size_t best_direct = 0;
    std::size_t best_got = 0;
    Real mag_direct = -1.0;
    Real mag_got = -1.0;
    for (std::size_t v = 0; v < candidates; ++v) {
      Complex want{0.0, 0.0};
      for (std::size_t k = 0; k < r.size(); ++k) {
        want += r[k] * std::conj(words[v][k]);
      }
      ASSERT_LT(std::abs(got[v] - want), 1e-12) << "block " << block << " v " << v;
      if (std::norm(want) > mag_direct) {
        mag_direct = std::norm(want);
        best_direct = v;
      }
      if (std::norm(got[v]) > mag_got) {
        mag_got = std::norm(got[v]);
        best_got = v;
      }
    }
    ASSERT_EQ(best_got, best_direct) << "block " << block;
  }
}

TEST_P(CckQuarterTurn, DemodulateMatchesArgReference) {
  // The pre-sign-test demodulator: direct codeword search, then p1 from
  // arg differences with the odd-symbol pi removed, rounded by lround.
  const DsssRate rate = GetParam();
  const std::size_t candidates = rate == DsssRate::k11Mbps ? 64 : 4;
  const std::size_t data_bits = rate == DsssRate::k11Mbps ? 6 : 2;
  itb::dsp::Xoshiro256 rng(818);
  CVec chips(kCckChipsPerSymbol * 4000);
  for (auto& c : chips) c = rng.complex_gaussian(1.0);
  const Complex reference = rng.complex_gaussian(1.0);

  Bits want;
  Real phase_ref = std::arg(reference);
  for (std::size_t s = 0; s * kCckChipsPerSymbol < chips.size(); ++s) {
    std::size_t best = 0;
    Complex best_corr{0.0, 0.0};
    for (std::size_t v = 0; v < candidates; ++v) {
      const auto cw = direct_codeword(rate, v);
      Complex acc{0.0, 0.0};
      for (std::size_t k = 0; k < kCckChipsPerSymbol; ++k) {
        acc += chips[s * kCckChipsPerSymbol + k] * std::conj(cw[k]);
      }
      if (v == 0 || std::norm(acc) > std::norm(best_corr)) {
        best = v;
        best_corr = acc;
      }
    }
    const Real p1 = std::arg(best_corr);
    Real dphi = p1 - phase_ref;
    if (s % 2 == 1) dphi -= itb::dsp::kPi;
    const auto dibit = dqpsk_dibit(arg_quarter(dphi));
    want.push_back(dibit[0]);
    want.push_back(dibit[1]);
    for (std::size_t b = 0; b < data_bits; ++b) want.push_back((best >> b) & 1);
    phase_ref = p1;
  }
  EXPECT_EQ(CckDemodulator(rate).demodulate(chips, reference), want);
}

INSTANTIATE_TEST_SUITE_P(Rates, CckQuarterTurn,
                         ::testing::Values(DsssRate::k5_5Mbps, DsssRate::k11Mbps));

// --- PLCP ----------------------------------------------------------------------

TEST(Plcp, HeaderRoundTrip) {
  PlcpHeader hdr;
  hdr.rate = DsssRate::k5_5Mbps;
  hdr.service = PlcpHeader::service_for(hdr.rate, 100);
  hdr.length_us = length_field_us(hdr.rate, 100);
  const Bits bits = build_plcp_header_bits(hdr);
  ASSERT_EQ(bits.size(), 48u);
  const auto parsed = parse_plcp_header_bits(bits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rate, hdr.rate);
  EXPECT_EQ(parsed->length_us, hdr.length_us);
}

TEST(Plcp, CorruptHeaderRejected) {
  PlcpHeader hdr;
  hdr.length_us = length_field_us(hdr.rate, 64);
  Bits bits = build_plcp_header_bits(hdr);
  bits[20] ^= 1;
  EXPECT_FALSE(parse_plcp_header_bits(bits).has_value());
}

TEST(Plcp, LengthFieldAndBack) {
  for (const DsssRate r : {DsssRate::k1Mbps, DsssRate::k2Mbps,
                           DsssRate::k5_5Mbps, DsssRate::k11Mbps}) {
    for (const std::size_t n : {14u, 31u, 77u, 209u, 1024u}) {
      const std::uint16_t len = length_field_us(r, n);
      const std::uint8_t service = PlcpHeader::service_for(r, n);
      EXPECT_EQ(psdu_bytes_from_length(r, len, (service & 0x80) != 0), n)
          << rate_name(r) << " " << n << " bytes";
    }
  }
}

TEST(Plcp, SfdBitsLength) { EXPECT_EQ(sfd_bits().size(), 16u); }

// --- MAC frames ------------------------------------------------------------------

TEST(MacFrame, DataRoundTrip) {
  MacFrame f;
  f.type = FrameType::kData;
  f.duration_us = 314;
  f.addr1 = {1, 2, 3, 4, 5, 6};
  f.addr2 = {7, 8, 9, 10, 11, 12};
  f.addr3 = {13, 14, 15, 16, 17, 18};
  f.sequence = 99;
  f.body = {0xCA, 0xFE, 0xBA, 0xBE};
  const Bytes psdu = serialize(f);
  EXPECT_EQ(psdu.size(), kDataHeaderBytes + 4 + kFcsBytes);
  const auto parsed = parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->frame.body, f.body);
  EXPECT_EQ(parsed->frame.addr2, f.addr2);
  EXPECT_EQ(parsed->frame.sequence, f.sequence);
}

TEST(MacFrame, ControlFrameSizes) {
  MacFrame rts;
  rts.type = FrameType::kRts;
  EXPECT_EQ(serialize(rts).size(), kRtsBytes);
  MacFrame cts;
  cts.type = FrameType::kCts;
  EXPECT_EQ(serialize(cts).size(), kCtsBytes);
  MacFrame ack;
  ack.type = FrameType::kAck;
  EXPECT_EQ(serialize(ack).size(), kAckBytes);
}

TEST(MacFrame, FcsCatchesCorruption) {
  MacFrame f;
  f.body = {1, 2, 3};
  Bytes psdu = serialize(f);
  psdu[25] ^= 0x10;
  const auto parsed = parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->fcs_ok);
}

TEST(MacFrame, CtsToSelfAddressedToSender) {
  MacFrame cts;
  cts.type = FrameType::kCtsToSelf;
  cts.addr1 = {9, 9, 9, 9, 9, 9};
  const Bytes psdu = serialize(cts);
  const auto parsed = parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame.addr1, cts.addr1);
}

// --- full TX -> RX -----------------------------------------------------------------

class DsssLoopback : public ::testing::TestWithParam<DsssRate> {};

TEST_P(DsssLoopback, CleanDecode) {
  DsssTxConfig txcfg;
  txcfg.rate = GetParam();
  const DsssTransmitter tx(txcfg);

  itb::dsp::Xoshiro256 rng(7);
  Bytes psdu(64);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const DsssFrame frame = tx.modulate(psdu);
  const DsssReceiver rx;
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_EQ(result->header.rate, GetParam());
  EXPECT_EQ(result->psdu, psdu);
}

TEST_P(DsssLoopback, DecodeAt12DbSnr) {
  DsssTxConfig txcfg;
  txcfg.rate = GetParam();
  const DsssTransmitter tx(txcfg);

  itb::dsp::Xoshiro256 rng(8);
  Bytes psdu(32);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const DsssFrame frame = tx.modulate(psdu);
  const CVec noisy = itb::channel::add_noise_snr(frame.baseband, 12.0, rng);
  const DsssReceiver rx;
  const auto result = rx.receive(noisy);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_EQ(result->psdu, psdu);
}

TEST_P(DsssLoopback, ShortTagPreambleDecodes) {
  DsssTxConfig txcfg;
  txcfg.rate = GetParam();
  txcfg.short_tag_preamble = true;
  const DsssTransmitter tx(txcfg);

  Bytes psdu = {0xAA, 0x55, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  const DsssFrame frame = tx.modulate(psdu);
  const DsssReceiver rx;
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(Rates, DsssLoopback,
                         ::testing::Values(DsssRate::k1Mbps, DsssRate::k2Mbps,
                                           DsssRate::k5_5Mbps, DsssRate::k11Mbps));

TEST(DsssLoopbackMisc, NoSignalNoDetection) {
  itb::dsp::Xoshiro256 rng(9);
  CVec noise(20000);
  for (auto& v : noise) v = rng.complex_gaussian(1.0);
  const DsssReceiver rx;
  EXPECT_FALSE(rx.receive(noise).has_value());
}

TEST(DsssLoopbackMisc, MacFrameOverDsssEndToEnd) {
  MacFrame f;
  f.type = FrameType::kData;
  f.body = {'h', 'e', 'l', 'l', 'o'};
  const Bytes psdu = serialize(f);

  DsssTxConfig txcfg;
  txcfg.rate = DsssRate::k2Mbps;
  const DsssTransmitter tx(txcfg);
  const DsssFrame frame = tx.modulate(psdu);
  const DsssReceiver rx;
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->fcs_ok);
  const auto mac = parse(result->psdu);
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->frame.body, f.body);
}

TEST(DsssLoopbackMisc, TruncatedCaptureReportsHeaderOnly) {
  DsssTxConfig txcfg;
  txcfg.rate = DsssRate::k2Mbps;
  const DsssTransmitter tx(txcfg);
  Bytes psdu(100, 0x42);
  const DsssFrame frame = tx.modulate(psdu);
  // Cut the capture in the middle of the payload.
  const CVec cut(frame.baseband.begin(),
                 frame.baseband.begin() + frame.baseband.size() / 2);
  const DsssReceiver rx;
  const auto result = rx.receive(cut);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_TRUE(result->psdu.empty());
}

TEST(DsssTx, ChipsAreExactQuarterTurns) {
  // Quadrant phases give every chip exactly as one of 1, j, -1, -j (times
  // the +-1 Barker chip), at every rate and with both preambles.
  const std::array<Complex, 4> kQuarters = {
      Complex{1.0, 0.0}, Complex{0.0, 1.0}, Complex{-1.0, 0.0},
      Complex{0.0, -1.0}};
  itb::dsp::Xoshiro256 rng(23);
  Bytes psdu(40);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (const DsssRate rate : {DsssRate::k1Mbps, DsssRate::k2Mbps,
                              DsssRate::k5_5Mbps, DsssRate::k11Mbps}) {
    for (const bool short_preamble : {false, true}) {
      DsssTxConfig txcfg;
      txcfg.rate = rate;
      txcfg.short_tag_preamble = short_preamble;
      const DsssFrame frame = DsssTransmitter(txcfg).modulate(psdu);
      for (std::size_t i = 0; i < frame.baseband.size(); ++i) {
        const Complex c = frame.baseband[i];
        ASSERT_TRUE(std::find(kQuarters.begin(), kQuarters.end(), c) !=
                    kQuarters.end())
            << rate_name(rate) << " short " << short_preamble << " chip " << i
            << " = (" << c.real() << ", " << c.imag() << ")";
      }
      const auto result = DsssReceiver().receive(frame.baseband);
      ASSERT_TRUE(result.has_value()) << rate_name(rate);
      EXPECT_EQ(result->psdu, psdu) << rate_name(rate) << " short " << short_preamble;
    }
  }
}

// --- rates / payload budget (paper §2.3.3) -----------------------------------------

TEST(Rates, PaperPayloadBudget) {
  EXPECT_EQ(paper_payload_bytes(DsssRate::k2Mbps), 38u);
  EXPECT_EQ(paper_payload_bytes(DsssRate::k5_5Mbps), 104u);
  EXPECT_EQ(paper_payload_bytes(DsssRate::k11Mbps), 209u);
  // 1 Mbps does not fit a useful payload in a 248 us window.
  EXPECT_LT(paper_payload_bytes(DsssRate::k1Mbps), 20u);
}

TEST(Rates, BleDataPacketEnables1Mbps) {
  // Paper §7: 2 ms BLE data packets make 1 Mbps Wi-Fi feasible.
  EXPECT_GT(paper_payload_bytes(DsssRate::k1Mbps, 2000.0), 200u);
}

TEST(Rates, AirtimeArithmetic) {
  EXPECT_DOUBLE_EQ(psdu_airtime_us(DsssRate::k2Mbps, 250), 1000.0);
  EXPECT_DOUBLE_EQ(frame_airtime_us(DsssRate::k1Mbps, 125), 192.0 + 1000.0);
  EXPECT_EQ(max_psdu_bytes_in_window(DsssRate::k11Mbps, 192.0), 0u);
}

}  // namespace
}  // namespace itb::wifi
