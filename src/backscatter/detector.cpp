#include "backscatter/detector.h"

#include <algorithm>
#include <cmath>

#include "dsp/units.h"

namespace itb::backscatter {

namespace {

/// Peak detector charge time constant (fast attack).
constexpr Real kTauAttackS = 0.05e-6;
/// Bleed fast enough that a constant OFDM symbol's leading energy spike
/// (the false-peak hazard the paper designs around, §2.4) decays within
/// the symbol.
constexpr Real kTauDecayS = 0.5e-6;
/// A pair's second symbol reads as "constant" (bit 1) when its envelope
/// falls below this fraction of the pair's first (always-random) symbol.
constexpr Real kPairRatioThreshold = 0.85;

}  // namespace

EnvelopeDetector::EnvelopeDetector(const EnvelopeDetectorConfig& cfg)
    : cfg_(cfg) {}

itb::dsp::RVec EnvelopeDetector::envelope(const CVec& samples) const {
  itb::dsp::RVec env(samples.size());
  const Real alpha =
      1.0 - std::exp(-1.0 / (cfg_.tau_s * cfg_.sample_rate_hz));
  const Real floor_amp =
      std::sqrt(itb::dsp::dbm_to_watts(cfg_.sensitivity_dbm));
  Real state = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Real mag = std::abs(samples[i]);
    if (mag < floor_amp) mag = 0.0;  // below detector sensitivity
    state += alpha * (mag - state);
    env[i] = state;
  }
  return env;
}

std::vector<EdgeEvent> EnvelopeDetector::edges(const CVec& samples) const {
  const itb::dsp::RVec env = envelope(samples);
  const Real threshold_amp =
      std::sqrt(itb::dsp::dbm_to_watts(cfg_.threshold_dbm));
  std::vector<EdgeEvent> out;
  bool high = false;
  for (std::size_t i = 0; i < env.size(); ++i) {
    const bool now = env[i] > threshold_amp;
    if (now != high) {
      out.push_back({i, now});
      high = now;
    }
  }
  return out;
}

std::size_t EnvelopeDetector::first_trigger(const CVec& samples) const {
  for (const EdgeEvent& e : edges(samples)) {
    if (e.rising) return e.sample;
  }
  return samples.size();
}

PeakDetector::PeakDetector(const PeakDetectorConfig& cfg) : cfg_(cfg) {}

itb::dsp::RVec PeakDetector::envelope(const CVec& samples) const {
  itb::dsp::RVec env(samples.size());
  const Real a_up =
      1.0 - std::exp(-1.0 / (kTauAttackS * cfg_.sample_rate_hz));
  const Real a_dn =
      1.0 - std::exp(-1.0 / (kTauDecayS * cfg_.sample_rate_hz));
  const Real floor_amp =
      std::sqrt(itb::dsp::dbm_to_watts(cfg_.sensitivity_dbm));
  Real state = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Real mag = std::abs(samples[i]);
    if (mag < floor_amp) mag = 0.0;
    const Real a = mag > state ? a_up : a_dn;
    state += a * (mag - state);
    env[i] = state;
  }
  return env;
}

Bits PeakDetector::decode_am(const CVec& samples, std::size_t data_start,
                             std::size_t symbol_samples,
                             std::size_t num_bits) const {
  const itb::dsp::RVec env = envelope(samples);

  // Mean envelope of the trailing 2/3 of each symbol (skipping CP and the
  // constant symbol's leading spike).
  const auto symbol_level = [&](std::size_t sym_index) -> Real {
    const std::size_t start = data_start + sym_index * symbol_samples;
    const std::size_t skip = symbol_samples / 3;
    if (start + symbol_samples > env.size()) return 0.0;
    Real acc = 0.0;
    std::size_t n = 0;
    for (std::size_t k = skip; k < symbol_samples; ++k) {
      acc += env[start + k];
      ++n;
    }
    return n ? acc / static_cast<Real>(n) : 0.0;
  };

  // Paired decision: each bit's leading symbol is random by construction,
  // so it serves as the live amplitude reference for its own pair — robust
  // to absolute level changes from path loss or AGC.
  Bits out;
  for (std::size_t b = 0; b < num_bits; ++b) {
    // Pairs start at symbol 1: (1,2), (3,4), ...
    const Real first = symbol_level(1 + 2 * b);
    const Real second = symbol_level(2 + 2 * b);
    out.push_back(second < kPairRatioThreshold * first ? 1 : 0);
  }
  return out;
}

Bits PeakDetector::decode_ook(const CVec& samples, std::size_t bit_samples) const {
  const itb::dsp::RVec env = envelope(samples);
  if (env.empty() || bit_samples == 0) return {};
  const auto [mn_it, mx_it] = std::minmax_element(env.begin(), env.end());
  const Real threshold = (*mn_it + *mx_it) / 2.0;
  Bits out;
  for (std::size_t start = 0; start + bit_samples <= env.size();
       start += bit_samples) {
    Real acc = 0.0;
    for (std::size_t k = 0; k < bit_samples; ++k) acc += env[start + k];
    out.push_back(acc / static_cast<Real>(bit_samples) > threshold ? 1 : 0);
  }
  return out;
}

}  // namespace itb::backscatter
