#include "wifi/ofdm_frame.h"

#include <cassert>
#include <cmath>

#include "dsp/fft.h"
#include "phycommon/lfsr.h"
#include "wifi/interleaver.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;

namespace {

const std::array<OfdmRateParams, 8> kRateTable = {{
    {OfdmRate::k6, Modulation::kBpsk, CodeRate::kRate1_2, 1, 48, 24, 0b1101, 6.0},
    {OfdmRate::k9, Modulation::kBpsk, CodeRate::kRate3_4, 1, 48, 36, 0b1111, 9.0},
    {OfdmRate::k12, Modulation::kQpsk, CodeRate::kRate1_2, 2, 96, 48, 0b0101, 12.0},
    {OfdmRate::k18, Modulation::kQpsk, CodeRate::kRate3_4, 2, 96, 72, 0b0111, 18.0},
    {OfdmRate::k24, Modulation::k16Qam, CodeRate::kRate1_2, 4, 192, 96, 0b1001, 24.0},
    {OfdmRate::k36, Modulation::k16Qam, CodeRate::kRate3_4, 4, 192, 144, 0b1011, 36.0},
    {OfdmRate::k48, Modulation::k64Qam, CodeRate::kRate2_3, 6, 288, 192, 0b0001, 48.0},
    {OfdmRate::k54, Modulation::k64Qam, CodeRate::kRate3_4, 6, 288, 216, 0b0011, 54.0},
}};

}  // namespace

const OfdmRateParams& ofdm_params(OfdmRate r) {
  for (const auto& p : kRateTable) {
    if (p.rate == r) return p;
  }
  return kRateTable[0];
}

const std::array<int, kPilotCarriers> kPilotIndices = {-21, -7, 7, 21};
const std::array<Real, kPilotCarriers> kPilotBase = {1.0, 1.0, 1.0, -1.0};

int data_subcarrier_index(std::size_t logical) {
  assert(logical < kDataCarriers);
  // Data occupies -26..-1 and 1..26 minus the four pilots.
  static const auto table = [] {
    std::array<int, kDataCarriers> t{};
    std::size_t n = 0;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0 || k == -21 || k == -7 || k == 7 || k == 21) continue;
      t[n++] = k;
    }
    return t;
  }();
  return table[logical];
}

Real pilot_polarity(std::size_t symbol_index) {
  // The 127-element polarity sequence equals the scrambler stream for the
  // all-ones seed mapped 0 -> +1, 1 -> -1 (802.11-2016 17.3.5.10).
  static const itb::phy::Bits seq = itb::phy::OfdmScrambler::sequence(0x7F, 127);
  return seq[symbol_index % 127] ? -1.0 : 1.0;
}

CVec build_ofdm_symbol(std::span<const Complex> data48, std::size_t symbol_index) {
  assert(data48.size() == kDataCarriers);
  CVec freq(kFftSize, Complex{0.0, 0.0});
  const auto bin = [](int k) {
    return k >= 0 ? static_cast<std::size_t>(k)
                  : static_cast<std::size_t>(64 + k);
  };
  for (std::size_t i = 0; i < kDataCarriers; ++i) {
    freq[bin(data_subcarrier_index(i))] = data48[i];
  }
  const Real pol = pilot_polarity(symbol_index);
  for (std::size_t p = 0; p < kPilotCarriers; ++p) {
    freq[bin(kPilotIndices[p])] = Complex{pol * kPilotBase[p], 0.0};
  }
  CVec time = itb::dsp::ifft(freq);
  // Scale so average sample power ~ average subcarrier power (52/64 loading).
  const Real scale = static_cast<Real>(kFftSize) / std::sqrt(52.0);
  for (Complex& v : time) v *= scale;

  CVec out;
  out.reserve(kSymbolSamples);
  out.insert(out.end(), time.end() - kCpLen, time.end());
  out.insert(out.end(), time.begin(), time.end());
  return out;
}

CVec extract_ofdm_symbol(std::span<const Complex> samples, std::size_t symbol_index,
                         std::span<const Complex> chan) {
  assert(samples.size() >= kSymbolSamples);
  assert(chan.size() == kFftSize);
  CVec time(samples.begin() + kCpLen, samples.begin() + kSymbolSamples);
  const Real scale = std::sqrt(52.0) / static_cast<Real>(kFftSize);
  for (Complex& v : time) v *= scale;
  CVec freq = itb::dsp::fft(time);

  const auto bin = [](int k) {
    return k >= 0 ? static_cast<std::size_t>(k)
                  : static_cast<std::size_t>(64 + k);
  };
  for (int k = -26; k <= 26; ++k) {
    const std::size_t b = bin(k);
    if (std::abs(chan[b]) > 1e-9) freq[b] /= chan[b];
  }

  // Common phase error from pilots.
  const Real pol = pilot_polarity(symbol_index);
  Complex pilot_acc{0.0, 0.0};
  for (std::size_t p = 0; p < kPilotCarriers; ++p) {
    const Complex expect{pol * kPilotBase[p], 0.0};
    pilot_acc += freq[bin(kPilotIndices[p])] * std::conj(expect);
  }
  Complex rot{1.0, 0.0};
  if (std::abs(pilot_acc) > 1e-12) rot = std::conj(pilot_acc / std::abs(pilot_acc));

  CVec out(kDataCarriers);
  for (std::size_t i = 0; i < kDataCarriers; ++i) {
    out[i] = freq[bin(data_subcarrier_index(i))] * rot;
  }
  return out;
}

CVec short_training_field() {
  // STF loads every 4th subcarrier (17.3.3): sqrt(13/6) * S_k with
  // S in {±(1+j)} at k in {±4, ±8, ±12, ±16, ±20, ±24}.
  CVec freq(kFftSize, Complex{0.0, 0.0});
  const Real a = std::sqrt(13.0 / 6.0);
  const Complex pj = a * Complex{1.0, 1.0};
  const Complex nj = a * Complex{-1.0, -1.0};
  struct Load {
    int k;
    Complex v;
  };
  const std::array<Load, 12> loads = {{{-24, pj},
                                       {-20, nj},
                                       {-16, pj},
                                       {-12, nj},
                                       {-8, nj},
                                       {-4, pj},
                                       {4, nj},
                                       {8, nj},
                                       {12, pj},
                                       {16, pj},
                                       {20, pj},
                                       {24, pj}}};
  const auto bin = [](int k) {
    return k >= 0 ? static_cast<std::size_t>(k)
                  : static_cast<std::size_t>(64 + k);
  };
  for (const auto& l : loads) freq[bin(l.k)] = l.v;
  CVec period = itb::dsp::ifft(freq);
  const Real scale = static_cast<Real>(kFftSize) / std::sqrt(12.0 * 13.0 / 6.0);
  for (Complex& v : period) v *= scale;
  // The 64-sample IFFT holds 4 repetitions of the 16-sample short symbol;
  // emit 160 samples = 10 short symbols.
  CVec out;
  out.reserve(160);
  for (std::size_t i = 0; i < 160; ++i) out.push_back(period[i % kFftSize]);
  return out;
}

std::array<Real, 53> ltf_sequence() {
  // L_{-26..26} per 802.11-2016 17.3.3 (0 at DC).
  return {1, 1,  -1, -1, 1,  1,  -1, 1,  -1, 1,  1, 1, 1, 1, 1, -1, -1, 1,
          1, -1, 1,  -1, 1,  1,  1,  1,  0,  1,  -1, -1, 1, 1, -1, 1, -1, 1,
          -1, -1, -1, -1, -1, 1,  1,  -1, -1, 1,  -1, 1, -1, 1, 1, 1, 1};
}

CVec long_training_field() {
  CVec freq(kFftSize, Complex{0.0, 0.0});
  const auto seq = ltf_sequence();
  const auto bin = [](int k) {
    return k >= 0 ? static_cast<std::size_t>(k)
                  : static_cast<std::size_t>(64 + k);
  };
  for (int k = -26; k <= 26; ++k) {
    freq[bin(k)] = Complex{seq[static_cast<std::size_t>(k + 26)], 0.0};
  }
  CVec period = itb::dsp::ifft(freq);
  const Real scale = static_cast<Real>(kFftSize) / std::sqrt(52.0);
  for (Complex& v : period) v *= scale;
  CVec out;
  out.reserve(160);
  // 32-sample cyclic prefix then two full periods.
  out.insert(out.end(), period.end() - 32, period.end());
  out.insert(out.end(), period.begin(), period.end());
  out.insert(out.end(), period.begin(), period.end());
  return out;
}

CVec build_signal_symbol(OfdmRate rate, std::size_t psdu_bytes) {
  const auto& p = ofdm_params(rate);
  itb::phy::Bits field(24, 0);
  // RATE (4 bits, MSB first per transmit order R1..R4).
  for (int i = 0; i < 4; ++i) {
    field[i] = (p.signal_rate_bits >> (3 - i)) & 1;
  }
  // bit 4 reserved = 0; LENGTH bits 5..16 LSB first.
  for (int i = 0; i < 12; ++i) {
    field[5 + i] = (psdu_bytes >> i) & 1;
  }
  // Even parity over bits 0..16 in bit 17; 18..23 tail zeros.
  unsigned ones = 0;
  for (int i = 0; i < 17; ++i) ones += field[i];
  field[17] = ones & 1;

  const itb::phy::Bits coded = convolutional_encode(field);
  const itb::phy::Bits inter = interleave(coded, 48, 1);
  const CVec symbols = qam_modulate(inter, Modulation::kBpsk);
  return build_ofdm_symbol(symbols, 0);
}

std::optional<SignalField> parse_signal_symbol(std::span<const Complex> samples,
                                               std::span<const Complex> chan) {
  const CVec data = extract_ofdm_symbol(samples, 0, chan);
  const itb::phy::Bits inter = qam_demodulate(data, Modulation::kBpsk);
  const itb::phy::Bits coded = deinterleave(inter, 48, 1);
  const itb::phy::Bits field = viterbi_decode(coded, 24);

  unsigned ones = 0;
  for (int i = 0; i < 17; ++i) ones += field[i];
  if ((ones & 1u) != field[17]) return std::nullopt;

  unsigned rate_bits = 0;
  for (int i = 0; i < 4; ++i) rate_bits = (rate_bits << 1) | field[i];
  for (const auto& p : kRateTable) {
    if (p.signal_rate_bits != rate_bits) continue;
    std::size_t length = 0;
    for (int i = 0; i < 12; ++i) length |= static_cast<std::size_t>(field[5 + i]) << i;
    return SignalField{p.rate, length};
  }
  return std::nullopt;
}

}  // namespace itb::wifi
