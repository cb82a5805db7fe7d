#include "ble/gfsk.h"

#include <cmath>

#include "dsp/fir.h"

namespace itb::ble {

namespace {

/// LE 1M symbol rate.
constexpr Real kSymbolRateHz = 1e6;
static_assert(kGfskSampleRateHz ==
              kSymbolRateHz * static_cast<Real>(kGfskSamplesPerSymbol));
/// h; deviation = h * symbol_rate / 2.
constexpr Real kModulationIndex = 0.5;
/// Gaussian bandwidth-time product and the filter's span in symbols.
constexpr Real kBt = 0.5;
constexpr std::size_t kFilterSpanSymbols = 3;
constexpr std::size_t kSps = kGfskSamplesPerSymbol;

}  // namespace

GfskModulator::GfskModulator()
    : gaussian_taps_(
          itb::dsp::design_gaussian(kBt, kSps, kFilterSpanSymbols)) {}

CVec GfskModulator::modulate(const Bits& bits) const {
  if (bits.empty()) return {};
  // NRZ mapping at sample rate: 1 -> +1, 0 -> -1.
  itb::dsp::RVec nrz(bits.size() * kSps);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Real v = bits[i] ? 1.0 : -1.0;
    for (std::size_t k = 0; k < kSps; ++k) nrz[i * kSps + k] = v;
  }
  // Gaussian pulse shaping of the frequency waveform.
  const itb::dsp::RVec freq = itb::dsp::filter_same(nrz, gaussian_taps_);

  // Frequency deviation: h = 2 * fd / symbol_rate  =>  fd = h * Rs / 2.
  const Real fd = kModulationIndex * kSymbolRateHz / 2.0;
  const Real phase_step = itb::dsp::kTwoPi * fd / kGfskSampleRateHz;

  CVec out(freq.size());
  Real phase = 0.0;
  for (std::size_t i = 0; i < freq.size(); ++i) {
    phase += phase_step * freq[i];
    out[i] = Complex{std::cos(phase), std::sin(phase)};
  }
  return out;
}

itb::dsp::RVec GfskDemodulator::instantaneous_frequency_hz(const CVec& samples) const {
  itb::dsp::RVec freq(samples.size(), 0.0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const Complex d = samples[i] * std::conj(samples[i - 1]);
    freq[i] = std::arg(d) * kGfskSampleRateHz / itb::dsp::kTwoPi;
  }
  if (!freq.empty() && freq.size() > 1) freq[0] = freq[1];
  return freq;
}

Bits GfskDemodulator::demodulate(const CVec& samples,
                                 std::size_t bit_offset_samples) const {
  const itb::dsp::RVec freq = instantaneous_frequency_hz(samples);
  Bits bits;
  // Average frequency over the middle half of each symbol to reject ISI at
  // the Gaussian-filtered edges.
  const std::size_t lo = kSps / 4;
  const std::size_t hi = kSps - kSps / 4;
  for (std::size_t start = bit_offset_samples; start + kSps <= freq.size();
       start += kSps) {
    Real acc = 0.0;
    for (std::size_t k = lo; k < hi; ++k) acc += freq[start + k];
    bits.push_back(acc > 0.0 ? 1 : 0);
  }
  return bits;
}

}  // namespace itb::ble
