// Composable RF impairment chain: everything between an ideal transmit
// waveform and the samples a cheap receiver actually sees.
//
// The paper's implant scenarios live or die on non-idealities the AWGN-only
// channel ignores: the tag's low-power oscillator drifts tens of ppm
// (carrier *and* sampling clock), through-tissue links add multipath, and
// the kind of ADC a wearable receiver ships quantizes coarsely. Each stage
// here models one of those, and the chain applies them in physical order:
//
//   multipath -> CFO + phase noise -> sample-rate offset -> IQ imbalance
//   -> ADC quantization
//
// Determinism contract (same scheme as core/parallel.h + core::trial_seed):
// apply() holds no mutable state; all randomness is drawn from counter-based
// substreams derived from (seed, stream, stage) with SplitMix64 mixing, so
// a Monte-Carlo sweep that assigns one `stream` per trial is bit-identical
// at any thread count or scheduling order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "channel/awgn.h"
#include "dsp/types.h"

namespace itb::channel {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;

/// N-tap small-scale fading channel with sample-spaced taps and an
/// exponential power-delay profile. The first tap is Rician with the given
/// K-factor (K <= 0 degenerates to Rayleigh); later taps are Rayleigh.
struct MultipathConfig {
  std::size_t num_taps = 3;
  /// RMS delay spread of the exponential profile (seconds). Indoor 2.4 GHz
  /// is ~30-70 ns; through-tissue body channels measure up to ~20 ns extra.
  Real delay_spread_s = 50e-9;
  Real k_factor = 4.0;
};

struct ImpairmentConfig {
  /// RF carrier the ppm figures refer to (2.4 GHz ISM by default).
  Real carrier_hz = 2.437e9;
  /// Baseband sample rate of the waveform being impaired.
  Real sample_rate_hz = 11e6;
  /// Carrier frequency offset of the tag/receiver clock, in ppm of carrier.
  Real cfo_ppm = 0.0;
  /// Sampling-rate offset in ppm (same crystal as the carrier on real tags,
  /// but kept independent so they can be swept separately).
  Real sro_ppm = 0.0;
  /// Receiver IQ imbalance: gain mismatch (dB) and phase skew (degrees).
  Real iq_gain_db = 0.0;
  Real iq_phase_deg = 0.0;
  /// Oscillator phase noise modeled as a Wiener process with this Lorentzian
  /// linewidth (Hz). 0 disables.
  Real phase_noise_linewidth_hz = 0.0;
  /// ADC resolution in bits per I/Q rail; 0 = ideal converter. Its full
  /// scale sits a fixed 12 dB above the signal RMS (impairments.cpp).
  unsigned adc_bits = 0;
  std::optional<MultipathConfig> multipath;
};

/// Substream seed for one (seed, stream, stage) triple. Same SplitMix64
/// counter-mixing scheme as core::trial_seed; exposed so tests can pin it.
std::uint64_t impairment_substream(std::uint64_t seed, std::uint64_t stream,
                                   std::uint64_t stage);

/// Applies a fixed impairment configuration to waveforms. Stateless and
/// thread-safe: every call derives its randomness from the (seed, stream)
/// pair alone, never from previous calls.
class ImpairmentChain {
 public:
  explicit ImpairmentChain(const ImpairmentConfig& cfg);

  /// The full chain: channel stages then the ADC front end.
  CVec apply(const CVec& x, std::uint64_t seed, std::uint64_t stream = 0) const;

  /// Channel-side stages only (multipath, CFO, phase noise, SRO, IQ) —
  /// lets callers add receiver thermal noise *before* quantization. Works
  /// on `y` in place; the SRO stage changes its length and gives it new
  /// storage.
  void apply_channel_inplace(CVec& y, std::uint64_t seed,
                             std::uint64_t stream = 0) const;
  /// apply_channel_inplace on a copy of x.
  CVec apply_channel(const CVec& x, std::uint64_t seed,
                     std::uint64_t stream = 0) const;

  /// ADC quantization alone (deterministic; no RNG involved), in place.
  void apply_frontend_inplace(std::span<Complex> y) const;
  /// apply_frontend_inplace on a copy of x.
  CVec apply_frontend(const CVec& x) const;

  /// CFO in Hz implied by cfo_ppm at the configured carrier.
  Real cfo_hz() const {
    return FrequencyOffset::from_ppm(cfg_.cfo_ppm, cfg_.carrier_hz).hz();
  }

 private:
  ImpairmentConfig cfg_;
};

// --- presets for the paper's deployment scenarios -------------------------
// Each takes the waveform's sample rate because the chain is applied at
// baseband; the carrier default matches the 2.4 GHz ISM band.

/// Contact lens / neural implant: tissue multipath is short but the tag
/// crystal is the cheapest available (±40 ppm) and the reader ADC is coarse.
ImpairmentConfig implant_tissue_preset(Real sample_rate_hz,
                                       Real carrier_hz = 2.437e9);

/// Hospital ward: longer indoor delay spread, body movement keeps the LOS
/// weak, moderate clock quality.
ImpairmentConfig ward_mobility_preset(Real sample_rate_hz,
                                      Real carrier_hz = 2.437e9);

/// Card-to-card: near-field, strong LOS, almost no multipath; clocks still
/// consumer grade.
ImpairmentConfig card_to_card_preset(Real sample_rate_hz,
                                     Real carrier_hz = 2.437e9);

/// Named presets for config plumbing (core scenarios, Monte Carlo, benches).
enum class ImpairmentPreset {
  kNone,
  kImplantTissue,
  kWardMobility,
  kCardToCard,
};

/// Resolves a preset at a waveform's rate/carrier; nullopt for kNone.
std::optional<ImpairmentConfig> make_impairment_preset(ImpairmentPreset preset,
                                                       Real sample_rate_hz,
                                                       Real carrier_hz);

}  // namespace itb::channel
