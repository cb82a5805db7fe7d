#include "backscatter/ssb_modulator.h"

#include <cassert>
#include <cmath>

#include "dsp/spectrum.h"
#include "dsp/units.h"

namespace itb::backscatter {

namespace {

/// Per-sample phase increment of a square wave at `freq`, expressed as a
/// 0.64 fixed-point fraction of a cycle. A 64-bit accumulator stepping by
/// this value replaces the per-sample floor() of the seed implementation:
/// the top two accumulator bits ARE the carrier quadrant, and for the
/// sample-exact 143 MHz design (fs = 4f) the step is exactly 2^62 so edges
/// land on the same samples as before. For non-dyadic ratios the 2^-64
/// cycle quantization (~5e-20) is far below the switching jitter the
/// nearest-sample model already accepts.
std::uint64_t phase_step_fixed(Real freq, Real sample_rate) {
  Real r = freq / sample_rate;
  r -= std::floor(r);  // alias into [0, 1): only the fractional phase matters
  const Real scaled = std::ldexp(r, 32);
  const Real hi_f = std::floor(scaled);
  std::uint64_t hi = static_cast<std::uint64_t>(hi_f);
  std::uint64_t lo =
      static_cast<std::uint64_t>(std::llround(std::ldexp(scaled - hi_f, 32)));
  if (lo >> 32 != 0) {
    lo = 0;
    ++hi;
  }
  return (hi << 32) | lo;
}

}  // namespace

SsbModulator::SsbModulator(const SsbConfig& cfg) : cfg_(cfg) {
  // Quadrant encoding: bit0 = (I > 0), bit1 = (Q > 0).
  // (+,+) -> e^{j pi/4} region -> state 0 of the canonical order,
  // (-,+) -> state 1, (-,-) -> state 2, (+,-) -> state 3.
  quadrant_to_state_ = {/*I+Q+*/ 0, /*I-Q+*/ 1, /*I-Q-*/ 2, /*I+Q-*/ 3};
  gammas_ = cfg_.network.gammas();
  phase_step_ = phase_step_fixed(std::abs(cfg_.shift_hz), cfg_.sample_rate_hz);
}

StateSequence SsbModulator::carrier_states(std::size_t n) const {
  StateSequence out(n);
  // With the I branch a quarter period ahead of Q (the cos/sin pair), the
  // quadrant sequence over one carrier cycle is simply 0,1,2,3 for an
  // upshift — the top two bits of the phase accumulator. A downshift swaps
  // the branch roles, conjugating the exponential: quadrant 3,2,1,0.
  const bool up = cfg_.shift_hz >= 0.0;
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const unsigned quadrant = static_cast<unsigned>(acc >> 62);
    out[k] = quadrant_to_state_[up ? quadrant : 3u - quadrant];
    acc += phase_step_;
  }
  return out;
}

StateSequence SsbModulator::modulate_states(
    const std::vector<std::uint8_t>& rotation_per_sample) const {
  StateSequence carrier = carrier_states(rotation_per_sample.size());
  for (std::size_t k = 0; k < carrier.size(); ++k) {
    // Multiplying by j^r advances the state index by r (states are 90 deg
    // apart, ordered counter-clockwise).
    carrier[k] = static_cast<std::uint8_t>((carrier[k] + rotation_per_sample[k]) % 4);
  }
  return carrier;
}

CVec SsbModulator::states_to_waveform(const StateSequence& states) const {
  CVec out(states.size());
  for (std::size_t k = 0; k < states.size(); ++k) out[k] = gammas_[states[k]];
  return out;
}

Real SsbModulator::conversion_loss_db(std::size_t probe_samples) const {
  const CVec wave = states_to_waveform(carrier_states(probe_samples));
  itb::dsp::WelchConfig wcfg;
  wcfg.segment_size = 4096;
  wcfg.overlap = 2048;
  const itb::dsp::Psd psd =
      itb::dsp::welch_psd(wave, cfg_.sample_rate_hz, wcfg);
  const Real half_bin = 2.0 * psd.bin_hz;
  const Real fund = itb::dsp::band_power(psd, cfg_.shift_hz - half_bin,
                                         cfg_.shift_hz + half_bin);
  // Incident tone power is 1 (unit amplitude): loss = -10 log10(P_fund).
  return -10.0 * std::log10(std::max(fund, 1e-30));
}

DsbModulator::DsbModulator(const SsbConfig& cfg) : cfg_(cfg) {
  gammas_ = cfg_.network.gammas();
  phase_step_ = phase_step_fixed(std::abs(cfg_.shift_hz), cfg_.sample_rate_hz);
}

StateSequence DsbModulator::carrier_states(std::size_t n) const {
  StateSequence out(n);
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // Two states: pick the pair with maximal separation (0 and 2 are
    // diametrically opposite in the canonical order). The square wave is
    // +1 exactly when the accumulator sits in quadrants 0 or 3.
    const unsigned quadrant = static_cast<unsigned>(acc >> 62);
    out[k] = (quadrant == 0 || quadrant == 3) ? 0 : 2;
    acc += phase_step_;
  }
  return out;
}

CVec DsbModulator::states_to_waveform(const StateSequence& states) const {
  CVec out(states.size());
  for (std::size_t k = 0; k < states.size(); ++k) out[k] = gammas_[states[k]];
  return out;
}

CVec DsbModulator::modulate(
    const std::vector<std::uint8_t>& bpsk_flip_per_sample) const {
  StateSequence states = carrier_states(bpsk_flip_per_sample.size());
  for (std::size_t k = 0; k < states.size(); ++k) {
    if (bpsk_flip_per_sample[k] & 1) {
      states[k] = static_cast<std::uint8_t>((states[k] + 2) % 4);
    }
  }
  return states_to_waveform(states);
}

std::vector<std::uint8_t> expand_rotations(const std::vector<std::uint8_t>& per_chip,
                                           std::size_t samples_per_chip) {
  std::vector<std::uint8_t> out(per_chip.size() * samples_per_chip);
  for (std::size_t i = 0; i < per_chip.size(); ++i) {
    for (std::size_t k = 0; k < samples_per_chip; ++k) {
      out[i * samples_per_chip + k] = per_chip[i];
    }
  }
  return out;
}

}  // namespace itb::backscatter
