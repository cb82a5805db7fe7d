// Tests for the 802.11a/g OFDM stack and the paper's AM-downlink trick
// (§2.4): coding, interleaving, QAM, symbol construction, the TX -> RX loop,
// scrambler-seed recovery (§4.4) and constant-OFDM construction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "backscatter/detector.h"
#include "channel/awgn.h"
#include "dsp/rng.h"
#include "dsp/units.h"
#include "phycommon/lfsr.h"
#include "wifi/am_downlink.h"
#include "wifi/chipset.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm_rx.h"
#include "wifi/ofdm_tx.h"
#include "wifi/qam.h"

namespace itb::wifi {
namespace {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;
using itb::phy::Bytes;

Bits random_bits(std::size_t n, std::uint64_t seed) {
  itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(seed));
  Bits out(n);
  for (auto& b : out) b = rng.bit();
  return out;
}

// --- convolutional code --------------------------------------------------------

TEST(Convolutional, AllOnesInputGivesAllOnesOutput) {
  // The property the AM trick depends on (§2.4): both generators have an
  // odd number of taps.
  const Bits ones(64, 1);
  // Preload the encoder state with ones so the run is steady-state.
  const Bits coded = convolutional_encode(ones, 0x3F);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    EXPECT_EQ(coded[i], 1) << "bit " << i;
  }
}

TEST(Convolutional, AllZerosInputGivesAllZerosOutput) {
  const Bits zeros(64, 0);
  const Bits coded = convolutional_encode(zeros, 0x00);
  for (auto b : coded) EXPECT_EQ(b, 0);
}

TEST(Convolutional, ViterbiDecodesCleanStream) {
  const Bits data = random_bits(200, 21);
  const Bits coded = convolutional_encode(data);
  EXPECT_EQ(viterbi_decode(coded, data.size()), data);
}

TEST(Convolutional, ViterbiCorrectsScatteredErrors) {
  const Bits data = random_bits(300, 22);
  Bits coded = convolutional_encode(data);
  // Flip isolated bits (spaced beyond the constraint length).
  for (std::size_t i = 20; i + 40 < coded.size(); i += 40) coded[i] ^= 1;
  EXPECT_EQ(viterbi_decode(coded, data.size()), data);
}

TEST(Convolutional, PunctureRate23RoundTrip) {
  const Bits data = random_bits(240, 23);
  const Bits coded = convolutional_encode(data);
  const Bits punct = puncture(coded, CodeRate::kRate2_3);
  EXPECT_EQ(punct.size(), data.size() * 3 / 2);
  EXPECT_EQ(decode_punctured(punct, CodeRate::kRate2_3, data.size()), data);
}

TEST(Convolutional, PunctureRate34RoundTrip) {
  const Bits data = random_bits(300, 24);
  const Bits coded = convolutional_encode(data);
  const Bits punct = puncture(coded, CodeRate::kRate3_4);
  EXPECT_EQ(punct.size(), data.size() * 4 / 3);
  EXPECT_EQ(decode_punctured(punct, CodeRate::kRate3_4, data.size()), data);
}

TEST(Convolutional, DepunctureInsertsErasures) {
  const Bits punct(12, 1);
  const Bits padded = depuncture_with_erasures(punct, CodeRate::kRate3_4);
  std::size_t erasures = 0;
  for (auto b : padded) erasures += (b == 2);
  EXPECT_EQ(erasures, padded.size() / 3);
}

TEST(Convolutional, DepunctureRate23KeepsFinalErasure) {
  // The last period's dropped B1 must come back as an erasure, so the
  // padded stream is exactly as long as the rate-1/2 stream it stands for.
  for (const std::size_t n : {std::size_t{2}, std::size_t{240}}) {
    const Bits coded = convolutional_encode(random_bits(n, 25));
    const Bits padded =
        depuncture_with_erasures(puncture(coded, CodeRate::kRate2_3),
                                 CodeRate::kRate2_3);
    ASSERT_EQ(padded.size(), coded.size()) << "n=" << n;
    EXPECT_EQ(padded.back(), 2) << "n=" << n;
  }
}

TEST(Convolutional, DepunctureCoversPartialPeriods) {
  // Data lengths whose coded stream ends mid-period, at both rates.
  for (const CodeRate rate : {CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    for (std::size_t n = 1; n <= 7; ++n) {
      const Bits data = random_bits(n, 26 + n);
      const Bits punct = puncture(convolutional_encode(data), rate);
      EXPECT_GE(depuncture_with_erasures(punct, rate).size(), 2 * n)
          << "n=" << n;
      EXPECT_EQ(decode_punctured(punct, rate, n).size(), n) << "n=" << n;
    }
  }
}

TEST(Convolutional, ViterbiRejectsShortInput) {
  const Bits coded = convolutional_encode(random_bits(10, 27));
  EXPECT_THROW(viterbi_decode(Bits(coded.begin(), coded.end() - 1), 10),
               std::invalid_argument);
  EXPECT_THROW(decode_punctured(Bits(14, 0), CodeRate::kRate2_3, 12),
               std::invalid_argument);
  EXPECT_NO_THROW(viterbi_decode(coded, 10));
}

TEST(Convolutional, CodeRateValues) {
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kRate1_2), 0.5);
  EXPECT_NEAR(code_rate_value(CodeRate::kRate2_3), 0.6667, 1e-3);
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kRate3_4), 0.75);
}

// --- interleaver -----------------------------------------------------------------

class InterleaverAllRates : public ::testing::TestWithParam<OfdmRate> {};

TEST_P(InterleaverAllRates, RoundTrip) {
  const auto& p = ofdm_params(GetParam());
  const Bits in = random_bits(p.n_cbps, 31);
  const Bits inter = interleave(in, p.n_cbps, p.n_bpsc);
  EXPECT_EQ(deinterleave(inter, p.n_cbps, p.n_bpsc), in);
}

TEST_P(InterleaverAllRates, PermutationIsBijective) {
  const auto& p = ofdm_params(GetParam());
  const auto map = interleave_map(p.n_cbps, p.n_bpsc);
  std::vector<bool> hit(p.n_cbps, false);
  for (const std::size_t j : map) {
    ASSERT_LT(j, p.n_cbps);
    EXPECT_FALSE(hit[j]);
    hit[j] = true;
  }
}

TEST_P(InterleaverAllRates, ConstantStreamIsFixedPoint) {
  const auto& p = ofdm_params(GetParam());
  const Bits ones(p.n_cbps, 1);
  EXPECT_EQ(interleave(ones, p.n_cbps, p.n_bpsc), ones);
}

INSTANTIATE_TEST_SUITE_P(Rates, InterleaverAllRates,
                         ::testing::Values(OfdmRate::k6, OfdmRate::k12,
                                           OfdmRate::k24, OfdmRate::k36,
                                           OfdmRate::k48, OfdmRate::k54));

TEST(Interleaver, AdjacentBitsLandOnDistantSubcarriers) {
  const auto map = interleave_map(192, 4);  // 16-QAM
  // Adjacent coded bits must not land in the same subcarrier's bit group.
  EXPECT_GT((map[1] > map[0] ? map[1] - map[0] : map[0] - map[1]), 4u);
}

// --- QAM --------------------------------------------------------------------------

class QamRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(QamRoundTrip, CleanMapping) {
  const Modulation m = GetParam();
  const std::size_t bps = bits_per_symbol(m);
  const Bits in = random_bits(bps * 100, 41);
  const CVec sym = qam_modulate(in, m);
  EXPECT_EQ(qam_demodulate(sym, m), in);
}

TEST_P(QamRoundTrip, UnitAveragePower) {
  const Modulation m = GetParam();
  const std::size_t bps = bits_per_symbol(m);
  const Bits in = random_bits(bps * 4096, 42);
  const CVec sym = qam_modulate(in, m);
  EXPECT_NEAR(itb::dsp::mean_power(sym), 1.0, 0.05);
}

TEST_P(QamRoundTrip, SurvivesSmallNoise) {
  const Modulation m = GetParam();
  const std::size_t bps = bits_per_symbol(m);
  const Bits in = random_bits(bps * 200, 43);
  CVec sym = qam_modulate(in, m);
  itb::dsp::Xoshiro256 rng(44);
  sym = itb::channel::add_noise_snr(sym, 30.0, rng);
  EXPECT_EQ(qam_demodulate(sym, m), in);
}

INSTANTIATE_TEST_SUITE_P(Mods, QamRoundTrip,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::k16Qam, Modulation::k64Qam));

/// Hard-decision bits of one symbol through the batched demapper.
Bits demap_one(Complex symbol, Modulation m) {
  return qam_demodulate(std::span<const Complex>(&symbol, 1), m);
}

TEST(Qam, GrayNeighboursDifferInOneBit) {
  // 16-QAM: adjacent I levels differ in exactly one of the two I bits.
  const Bits a = demap_one({-3.0 / std::sqrt(10.0), 1.0 / std::sqrt(10.0)},
                           Modulation::k16Qam);
  const Bits b = demap_one({-1.0 / std::sqrt(10.0), 1.0 / std::sqrt(10.0)},
                           Modulation::k16Qam);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(itb::phy::hamming_distance(a, b), 1u);
}

TEST(Qam, UnmapMapsNaNAndInfToDefinedLevels) {
  // Regression: a NaN soft value (propagated through an impairment chain or
  // an equalizer division by a null channel estimate) used to reach
  // static_cast<int> inside the Gray demapper — undefined behaviour. NaN now
  // pins deterministically to the most negative level (the all-zeros Gray
  // group); +-inf clamp to the outermost levels as before.
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();

  // 64-QAM: NaN real -> level -7 -> 000; +inf imag -> level +7 -> 100.
  const Bits b64 = demap_one({nan, inf}, Modulation::k64Qam);
  ASSERT_EQ(b64.size(), 6u);
  EXPECT_EQ(Bits(b64.begin(), b64.begin() + 3), (Bits{0, 0, 0}));
  EXPECT_EQ(Bits(b64.begin() + 3, b64.end()), (Bits{1, 0, 0}));

  // -inf clamps to the most negative level on any width.
  const Bits bneg = demap_one({-inf, -inf}, Modulation::k16Qam);
  EXPECT_EQ(bneg, (Bits{0, 0, 0, 0}));

  // BPSK: NaN -> -1 -> bit 0; both-NaN QPSK -> 00.
  EXPECT_EQ(demap_one({nan, 0.0}, Modulation::kBpsk), (Bits{0}));
  EXPECT_EQ(demap_one({nan, nan}, Modulation::kQpsk), (Bits{0, 0}));

  // A NaN-poisoned stream demodulates to the right number of well-formed
  // bits instead of UB.
  const CVec poisoned(5, Complex{nan, nan});
  const Bits all = qam_demodulate(poisoned, Modulation::k64Qam);
  ASSERT_EQ(all.size(), 30u);
  for (const auto bit : all) EXPECT_LE(bit, 1);
}

// --- OFDM symbols -------------------------------------------------------------------

TEST(OfdmSymbol, BuildExtractRoundTrip) {
  itb::dsp::Xoshiro256 rng(51);
  CVec data(kDataCarriers);
  for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const CVec sym = build_ofdm_symbol(data, 3);
  ASSERT_EQ(sym.size(), kSymbolSamples);
  const CVec unit_channel(kFftSize, Complex{1.0, 0.0});
  const CVec back = extract_ofdm_symbol(sym, 3, unit_channel);
  for (std::size_t i = 0; i < kDataCarriers; ++i) {
    EXPECT_NEAR(std::abs(back[i] - data[i]), 0.0, 1e-9) << "carrier " << i;
  }
}

TEST(OfdmSymbol, CyclicPrefixMatchesTail) {
  CVec data(kDataCarriers, Complex{0.5, -0.5});
  const CVec sym = build_ofdm_symbol(data, 0);
  for (std::size_t i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(sym[i] - sym[kFftSize + i]), 0.0, 1e-12);
  }
}

TEST(OfdmSymbol, DataSubcarrierLayout) {
  // 48 data carriers, skipping DC and the four pilots.
  std::set<int> seen;
  for (std::size_t i = 0; i < kDataCarriers; ++i) {
    const int k = data_subcarrier_index(i);
    EXPECT_NE(k, 0);
    EXPECT_NE(std::abs(k), 7);
    EXPECT_NE(std::abs(k), 21);
    EXPECT_GE(k, -26);
    EXPECT_LE(k, 26);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), kDataCarriers);
}

TEST(OfdmSymbol, PilotPolarityIsCyclic127) {
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(pilot_polarity(i), pilot_polarity(i + 127));
  }
}

TEST(OfdmSymbol, PreambleLengths) {
  EXPECT_EQ(short_training_field().size(), 160u);
  EXPECT_EQ(long_training_field().size(), 160u);
}

TEST(OfdmSymbol, StfIsPeriodic16) {
  const CVec stf = short_training_field();
  for (std::size_t i = 0; i + 16 < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0, 1e-9);
  }
}

TEST(OfdmSymbol, LtfPeriodsIdentical) {
  const CVec ltf = long_training_field();
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[96 + i]), 0.0, 1e-9);
  }
}

TEST(OfdmSymbol, SignalSymbolRoundTrip) {
  const CVec sym = build_signal_symbol(OfdmRate::k36, 666);
  const CVec unit_channel(kFftSize, Complex{1.0, 0.0});
  const auto out = parse_signal_symbol(sym, unit_channel);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->rate, OfdmRate::k36);
  EXPECT_EQ(out->length_bytes, 666u);
}

// --- OFDM TX -> RX -------------------------------------------------------------------

class OfdmLoopback : public ::testing::TestWithParam<OfdmRate> {};

TEST_P(OfdmLoopback, CleanDecode) {
  OfdmTxConfig txcfg;
  txcfg.rate = GetParam();
  txcfg.scrambler_seed = 0x47;
  const OfdmTransmitter tx(txcfg);
  itb::dsp::Xoshiro256 rng(61);
  Bytes psdu(54);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const OfdmTxResult t = tx.transmit(psdu);

  const OfdmReceiver rx;
  const auto r = rx.receive(t.baseband);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->signal_ok);
  EXPECT_EQ(r->rate, GetParam());
  EXPECT_EQ(r->scrambler_seed, 0x47);
  ASSERT_GE(r->psdu.size(), psdu.size());
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    EXPECT_EQ(r->psdu[i], psdu[i]) << "byte " << i;
  }
}

TEST_P(OfdmLoopback, DecodeAt25DbSnr) {
  OfdmTxConfig txcfg;
  txcfg.rate = GetParam();
  const OfdmTransmitter tx(txcfg);
  itb::dsp::Xoshiro256 rng(62);
  Bytes psdu(27);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const OfdmTxResult t = tx.transmit(psdu);
  const CVec noisy = itb::channel::add_noise_snr(t.baseband, 25.0, rng);

  const OfdmReceiver rx;
  const auto r = rx.receive(noisy);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->signal_ok);
  ASSERT_GE(r->psdu.size(), psdu.size());
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    EXPECT_EQ(r->psdu[i], psdu[i]) << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, OfdmLoopback,
                         ::testing::Values(OfdmRate::k6, OfdmRate::k12,
                                           OfdmRate::k24, OfdmRate::k36,
                                           OfdmRate::k54));

TEST(OfdmLoopback9Mbps, EveryDataSymbolCountDecodes) {
  // 9 Mbps carries 36 data bits (4.5 bytes) a symbol, so an odd symbol
  // count makes the byte LENGTH floor; the receiver must still decode every
  // symbol. These PSDUs fill 1, 2, 3 and 4 data symbols.
  OfdmTxConfig txcfg;
  txcfg.rate = OfdmRate::k9;
  const OfdmTransmitter tx(txcfg);
  itb::dsp::Xoshiro256 rng(63);
  std::size_t symbols = 1;
  for (const std::size_t bytes : {1u, 4u, 8u, 13u}) {
    Bytes psdu(bytes);
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const OfdmTxResult t = tx.transmit(psdu);
    ASSERT_EQ(t.num_data_symbols, symbols) << bytes << " B";

    const auto r = OfdmReceiver().receive(t.baseband);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->signal_ok);
    EXPECT_EQ(r->rate, OfdmRate::k9);
    // Every bit after SERVICE and before the tail comes back, pad included.
    EXPECT_EQ(r->psdu.size(), (36 * symbols - 16 - 6) / 8) << bytes << " B";
    ASSERT_GE(r->psdu.size(), psdu.size()) << bytes << " B";
    for (std::size_t i = 0; i < psdu.size(); ++i) {
      EXPECT_EQ(r->psdu[i], psdu[i]) << bytes << " B, byte " << i;
    }
    ++symbols;
  }
}

TEST(OfdmRx, ZeroLengthSignalDecodesNoPsdu) {
  // LENGTH 0 passes the SIGNAL parity but announces no DATA symbols.
  const OfdmTxResult t = OfdmTransmitter().transmit_data_bits(Bits{});
  ASSERT_EQ(t.num_data_symbols, 0u);
  const auto r = OfdmReceiver().receive(t.baseband);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->signal_ok);
  EXPECT_TRUE(r->psdu.empty());
}

TEST(OfdmRx, NoFrameInNoise) {
  itb::dsp::Xoshiro256 rng(63);
  CVec noise(8000);
  for (auto& v : noise) v = rng.complex_gaussian(1.0);
  const OfdmReceiver rx;
  EXPECT_FALSE(rx.receive(noise).has_value());
}

TEST(OfdmRx, FrameAtOffsetIsFound) {
  OfdmTxConfig txcfg;
  const OfdmTransmitter tx(txcfg);
  const OfdmTxResult t = tx.transmit(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  itb::dsp::Xoshiro256 rng(64);
  CVec stream(1000, Complex{0, 0});
  for (auto& v : stream) v = rng.complex_gaussian(1e-6);
  stream.insert(stream.end(), t.baseband.begin(), t.baseband.end());
  const OfdmReceiver rx;
  const auto r = rx.receive(stream);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(static_cast<double>(r->frame_start), 1000.0, 2.0);
}

// --- scrambler seeds (§4.4) -----------------------------------------------------------

TEST(Chipset, IncrementPolicySequence) {
  SeedSequencer seq(ar9580(), 1, 10);
  EXPECT_EQ(seq.next(), 10);
  EXPECT_EQ(seq.next(), 11);
  EXPECT_EQ(seq.next(), 12);
}

TEST(Chipset, IncrementWrapsWithoutZero) {
  SeedSequencer seq(ar5001g(), 1, 127);
  EXPECT_EQ(seq.next(), 127);
  EXPECT_EQ(seq.next(), 1);  // wraps past zero (seed 0 is illegal)
}

TEST(Chipset, FixedPolicyHoldsSeed) {
  SeedSequencer seq(ath5k_fixed(0x5A), 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seq.next(), 0x5A);
}

TEST(Chipset, ClassifierSeparatesPolicies) {
  std::vector<std::uint8_t> inc = {5, 6, 7, 8, 9};
  std::vector<std::uint8_t> fixed = {9, 9, 9, 9};
  std::vector<std::uint8_t> random = {3, 90, 14, 77};
  EXPECT_TRUE(classify_seeds(inc).looks_incrementing);
  EXPECT_FALSE(classify_seeds(inc).looks_fixed);
  EXPECT_TRUE(classify_seeds(fixed).looks_fixed);
  EXPECT_FALSE(classify_seeds(random).looks_incrementing);
  EXPECT_FALSE(classify_seeds(random).looks_fixed);
}

TEST(Chipset, SeedTrackingThroughReceiver) {
  // The paper's §4.4 methodology end-to-end: transmit frames with an
  // incrementing-seed chipset, recover seeds with the OFDM receiver, and
  // classify the policy.
  SeedSequencer seq(ar5007g(), 1, 0x30);
  std::vector<std::uint8_t> observed;
  const OfdmReceiver rx;
  for (int frame = 0; frame < 4; ++frame) {
    OfdmTxConfig txcfg;
    txcfg.rate = OfdmRate::k36;
    txcfg.scrambler_seed = seq.next();
    const OfdmTransmitter tx(txcfg);
    const OfdmTxResult t = tx.transmit(Bytes{0x11, 0x22, 0x33, 0x44});
    const auto r = rx.receive(t.baseband);
    ASSERT_TRUE(r.has_value());
    observed.push_back(r->scrambler_seed);
  }
  EXPECT_TRUE(classify_seeds(observed).looks_incrementing);
}

// --- AM downlink (§2.4) -----------------------------------------------------------------

TEST(AmDownlink, ConstantSymbolDataBitsScrambleToFill) {
  AmDownlinkConfig cfg;
  cfg.scrambler_seed = 0x2F;
  AmDownlinkEncoder enc(cfg, 1);
  const auto& p = ofdm_params(cfg.rate);
  const Bits data = enc.constant_symbol_data_bits(p.n_dbps * 3, p.n_dbps);
  const Bits seq = itb::phy::OfdmScrambler::sequence(0x2F, p.n_dbps * 4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ((data[i] ^ seq[p.n_dbps * 3 + i]) & 1, 1);
  }
}

TEST(AmDownlink, ConstantSymbolConcentratesEnergyInFirstSample) {
  AmDownlinkConfig cfg;
  AmDownlinkEncoder enc(cfg, 2);
  const Bits message = {1};  // one constant symbol after two random ones
  const AmFrame frame = enc.encode(message);

  // Data symbols start after STF+LTF+SIGNAL = 400 samples; the constant
  // symbol is the third data symbol (header, random, constant).
  const std::size_t const_start = 400 + 2 * kSymbolSamples;
  const std::span<const Complex> sym(frame.tx.baseband.data() + const_start,
                                     kSymbolSamples);
  // First post-CP sample carries most of the energy; the residual ripple
  // comes from the four pilot subcarriers the payload cannot control.
  Real first = std::abs(sym[kCpLen]);
  Real rest = 0.0;
  for (std::size_t i = kCpLen + 8; i < kSymbolSamples; ++i) {
    rest = std::max(rest, std::abs(sym[i]));
  }
  EXPECT_GT(first, 3.0 * rest);
}

/// The tag's peak detector with its sensitivity floor out of the way: these
/// tests feed it the unattenuated transmit waveform.
itb::backscatter::PeakDetector strong_signal_detector() {
  itb::backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = -90.0;
  return itb::backscatter::PeakDetector(pdc);
}

TEST(AmDownlink, RandomSymbolsKeepHighEnvelope) {
  AmDownlinkConfig cfg;
  AmDownlinkEncoder enc(cfg, 3);
  const Bits message = {0, 0};
  const AmFrame frame = enc.encode(message);
  const auto pd = strong_signal_detector();
  // All symbols random -> all envelopes similar: the mean detector envelope
  // past the CP of every data symbol stays near the header symbol's.
  const auto env = pd.envelope(frame.tx.baseband);
  const auto symbol_level = [&](std::size_t s) {
    const std::size_t start = 400 + s * kSymbolSamples;
    Real acc = 0.0;
    for (std::size_t k = kCpLen; k < kSymbolSamples; ++k) acc += env[start + k];
    return acc / static_cast<Real>(kSymbolSamples - kCpLen);
  };
  ASSERT_EQ(frame.symbol_is_constant.size(), 5u);
  for (std::size_t s = 1; s < frame.symbol_is_constant.size(); ++s) {
    EXPECT_GT(symbol_level(s), 0.4 * symbol_level(0)) << "symbol " << s;
  }
  EXPECT_EQ(pd.decode_am(frame.tx.baseband, 400, kSymbolSamples, message.size()),
            message);
}

TEST(AmDownlink, EnvelopeDecodeRoundTrip) {
  AmDownlinkConfig cfg;
  cfg.scrambler_seed = 0x63;
  AmDownlinkEncoder enc(cfg, 4);
  const Bits message = {1, 0, 1, 1, 0, 0, 1, 0};
  const AmFrame frame = enc.encode(message);
  const Bits out = strong_signal_detector().decode_am(
      frame.tx.baseband, 400, kSymbolSamples, message.size());
  EXPECT_EQ(out, message);
}

TEST(AmDownlink, PeakDetectorDecodesMessage) {
  AmDownlinkConfig cfg;
  AmDownlinkEncoder enc(cfg, 5);
  const Bits message = {1, 1, 0, 1, 0, 0, 0, 1, 1, 0};
  const AmFrame frame = enc.encode(message);

  const Bits out = strong_signal_detector().decode_am(
      frame.tx.baseband, 400, kSymbolSamples, message.size());
  EXPECT_EQ(out, message);
}

TEST(AmDownlink, PeakDetectorSurvivesNoise) {
  AmDownlinkConfig cfg;
  AmDownlinkEncoder enc(cfg, 6);
  const Bits message = {1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0};
  const AmFrame frame = enc.encode(message);
  itb::dsp::Xoshiro256 rng(66);
  const CVec noisy = itb::channel::add_noise_snr(frame.tx.baseband, 15.0, rng);

  itb::backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = -90.0;
  const itb::backscatter::PeakDetector pd(pdc);
  const Bits out = pd.decode_am(noisy, 400, kSymbolSamples, message.size());
  ASSERT_EQ(out.size(), message.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < message.size(); ++i) errors += out[i] != message[i];
  EXPECT_LE(errors, 1u);
}

TEST(AmDownlink, FrameIsStillValid80211g) {
  // The AM frame must decode as a normal 802.11g frame on a standard
  // receiver — AM rides on legal payloads.
  AmDownlinkConfig cfg;
  cfg.scrambler_seed = 0x19;
  AmDownlinkEncoder enc(cfg, 7);
  const AmFrame frame = enc.encode({1, 0, 1});
  const OfdmReceiver rx;
  const auto r = rx.receive(frame.tx.baseband);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->signal_ok);
  EXPECT_EQ(r->scrambler_seed, 0x19);
}

TEST(AmDownlink, BitrateIs125Kbps) {
  AmDownlinkConfig cfg;
  AmDownlinkEncoder enc(cfg, 8);
  const AmFrame frame = enc.encode(Bits(10, 1));
  // 10 bits need 1 header + 20 data symbols = 21 symbols of 4 us; rate =
  // bits / data-symbol time.
  const double data_us =
      static_cast<double>(frame.symbol_is_constant.size() - 1) * 4.0;
  EXPECT_NEAR(10.0 / data_us * 1e3, 125.0, 1.0);
}

}  // namespace
}  // namespace itb::wifi
