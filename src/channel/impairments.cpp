#include "channel/impairments.h"

#include <algorithm>
#include <cmath>

#include "core/arena.h"
#include "dsp/mixer.h"
#include "dsp/rng.h"
#include "dsp/simd/kernels.h"
#include "dsp/units.h"
#include "obs/prof.h"

namespace itb::channel {

namespace {

/// ADC full scale sits this many dB above the signal RMS (clipping
/// headroom). Smaller backoff clips peaks; larger wastes resolution.
constexpr Real kAdcHeadroomDb = 12.0;

// Stage indices for substream derivation. Values are part of the
// determinism contract (DESIGN.md): changing them changes every seeded run.
enum Stage : std::uint64_t {
  kStageMultipath = 1,
  kStagePhase = 2,  // initial carrier phase + phase-noise walk
};

/// Multipath tap gains for one realization, written into `taps`
/// (arena-backed scratch; n = taps.size()). Mean total power is 1 so the
/// impairment does not change the average link budget, only its spread.
void draw_taps(const MultipathConfig& mp, Real sample_rate_hz,
               itb::dsp::Xoshiro256& rng, itb::core::Arena& arena,
               std::span<Complex> taps) {
  const std::size_t n = taps.size();
  // Exponential power-delay profile sampled at the tap spacing.
  std::span<Real> profile = arena.alloc_span<Real>(n);
  Real total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real delay_s = static_cast<Real>(i) / sample_rate_hz;
    profile[i] = mp.delay_spread_s > 0.0
                     ? std::exp(-delay_s / mp.delay_spread_s)
                     : (i == 0 ? 1.0 : 0.0);
    total += profile[i];
  }
  for (Real& p : profile) p /= total;

  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 && mp.k_factor > 0.0) {
      // Rician first tap: deterministic LOS component plus scatter.
      const Real k = mp.k_factor;
      const Real los = std::sqrt(profile[0] * k / (k + 1.0));
      const Complex scatter = rng.complex_gaussian(profile[0] / (k + 1.0));
      taps[0] = Complex{los, 0.0} + scatter;
    } else {
      taps[i] = rng.complex_gaussian(profile[i]);
    }
  }
}

}  // namespace

std::uint64_t impairment_substream(std::uint64_t seed, std::uint64_t stream,
                                   std::uint64_t stage) {
  using itb::dsp::splitmix64;
  return splitmix64(seed ^ splitmix64((stage << 48) ^ stream));
}

ImpairmentChain::ImpairmentChain(const ImpairmentConfig& cfg) : cfg_(cfg) {}

void ImpairmentChain::apply_channel_inplace(CVec& y, std::uint64_t seed,
                                            std::uint64_t stream) const {
  static const std::size_t kZone = obs::prof_zone("phy.impair_channel");
  const obs::ProfZone prof(kZone);

  // --- 1. multipath convolution -------------------------------------------
  if (cfg_.multipath && !y.empty()) {
    // Tap draws and the convolution output are trial scratch: carved from
    // the thread arena and rewound on scope exit, so a Monte-Carlo sweep
    // allocates nothing here after warm-up.
    itb::core::ArenaFrame scratch;
    itb::dsp::Xoshiro256 rng(
        impairment_substream(seed, stream, kStageMultipath));
    const std::size_t ntaps =
        std::max<std::size_t>(cfg_.multipath->num_taps, 1);
    std::span<Complex> taps = scratch.arena().alloc_span<Complex>(ntaps);
    draw_taps(*cfg_.multipath, cfg_.sample_rate_hz, rng, scratch.arena(),
              taps);
    // Causal convolution with ramp-in, vectorized across output samples
    // (per-output tap order k ascending, identical to the scalar loop).
    std::span<Complex> conv =
        scratch.arena().alloc_span_zeroed<Complex>(y.size());
    itb::dsp::simd::active_kernels().fir_causal_complex(
        y.data(), y.size(), taps.data(), taps.size(), conv.data());
    std::copy(conv.begin(), conv.end(), y.begin());
  }

  // --- 2. carrier offset + phase noise ------------------------------------
  const Real cfo = cfo_hz();
  const bool has_pn = cfg_.phase_noise_linewidth_hz > 0.0;
  if (cfo != 0.0 || has_pn) {
    itb::dsp::Xoshiro256 rng(impairment_substream(seed, stream, kStagePhase));
    const Real phi0 = rng.uniform(0.0, itb::dsp::kTwoPi);
    const Real step = itb::dsp::kTwoPi * cfo / cfg_.sample_rate_hz;
    // Wiener phase noise: variance of the per-sample increment for a
    // Lorentzian linewidth B is 2*pi*B/fs.
    const Real pn_sigma =
        has_pn ? std::sqrt(itb::dsp::kTwoPi * cfg_.phase_noise_linewidth_hz /
                           cfg_.sample_rate_hz)
               : 0.0;
    itb::dsp::rotate_carrier(y, phi0, step, pn_sigma, &rng);
  }

  // --- 3. sampling-rate offset --------------------------------------------
  // The receiver's clock runs (1 + sro) fast: it reads the waveform at
  // fractional positions i*(1 + sro). Linear interpolation is adequate for
  // the already band-limited signals here.
  // A fast clock consumes more input than it produces, so the input is read
  // as if zero-padded by the accumulated drift (plus one sample) —
  // otherwise a frame that ends at its last sample loses its final symbol
  // to the resampler. The output can be longer than y's storage, so it is
  // written straight into a buffer reserved for it, which then replaces y:
  // y is never grown, padded or copied.
  if (cfg_.sro_ppm != 0.0 && y.size() > 1) {
    const Real ratio = 1.0 + cfg_.sro_ppm * 1e-6;
    // Signed indices: a double converts to int64 in one instruction.
    const auto n = static_cast<std::int64_t>(y.size());
    const auto drift = static_cast<std::int64_t>(
        std::ceil(static_cast<Real>(n) * std::abs(cfg_.sro_ppm) * 1e-6));
    const std::int64_t padded = n + drift + 1;
    const auto at = [&](std::int64_t k) {
      return k < n ? y[static_cast<std::size_t>(k)] : Complex{0.0, 0.0};
    };
    CVec res;
    res.reserve(static_cast<std::size_t>(static_cast<Real>(padded) / ratio) +
                2);
    for (std::int64_t i = 0;; ++i) {
      const Real pos = static_cast<Real>(i) * ratio;
      const auto i0 = static_cast<std::int64_t>(pos);
      if (i0 + 1 >= padded) break;
      const Real frac = pos - static_cast<Real>(i0);
      res.push_back(at(i0) * (1.0 - frac) + at(i0 + 1) * frac);
    }
    y = std::move(res);
  }

  // --- 4. IQ gain/phase imbalance -----------------------------------------
  // y' = alpha*y + beta*conj(y): the standard widely-linear receiver model.
  if (cfg_.iq_gain_db != 0.0 || cfg_.iq_phase_deg != 0.0) {
    const Real g = itb::dsp::db_to_amplitude(cfg_.iq_gain_db);
    const Real phi = cfg_.iq_phase_deg * itb::dsp::kPi / 180.0;
    const Complex e{std::cos(phi), std::sin(phi)};
    const Complex alpha = (1.0 + g * e) / 2.0;
    const Complex beta = (1.0 - g * std::conj(e)) / 2.0;
    itb::dsp::simd::active_kernels().iq_imbalance(y.data(), alpha, beta,
                                                  y.size());
  }
}

CVec ImpairmentChain::apply_channel(const CVec& x, std::uint64_t seed,
                                    std::uint64_t stream) const {
  CVec y = x;
  apply_channel_inplace(y, seed, stream);
  return y;
}

void ImpairmentChain::apply_frontend_inplace(std::span<Complex> y) const {
  static const std::size_t kZone = obs::prof_zone("phy.impair_frontend");
  const obs::ProfZone prof(kZone);
  if (cfg_.adc_bits == 0 || y.empty()) return;
  const Real rms = itb::dsp::rms(y);
  if (rms <= 0.0) return;
  const Real full_scale = rms * itb::dsp::db_to_amplitude(kAdcHeadroomDb);
  const Real levels = std::pow(2.0, static_cast<Real>(cfg_.adc_bits - 1));
  const Real step = full_scale / levels;
  // Mid-rise quantizer, vectorized per double: clamp to
  // [-full_scale, full_scale - step] then (floor(v/step) + 0.5) * step.
  itb::dsp::simd::active_kernels().quantize_midrise(y.data(), full_scale, step,
                                                    y.size());
}

CVec ImpairmentChain::apply_frontend(const CVec& x) const {
  CVec y = x;
  apply_frontend_inplace(y);
  return y;
}

CVec ImpairmentChain::apply(const CVec& x, std::uint64_t seed,
                            std::uint64_t stream) const {
  CVec y = x;
  apply_channel_inplace(y, seed, stream);
  apply_frontend_inplace(y);
  return y;
}

ImpairmentConfig implant_tissue_preset(Real sample_rate_hz, Real carrier_hz) {
  ImpairmentConfig cfg;
  cfg.carrier_hz = carrier_hz;
  cfg.sample_rate_hz = sample_rate_hz;
  cfg.cfo_ppm = 40.0;   // cheapest tag crystal
  cfg.sro_ppm = 40.0;   // same oscillator drives the sampling clock
  cfg.phase_noise_linewidth_hz = 200.0;
  cfg.adc_bits = 6;     // wearable-reader class converter
  cfg.iq_gain_db = 0.3;
  cfg.iq_phase_deg = 2.0;
  MultipathConfig mp;
  mp.num_taps = 2;
  mp.delay_spread_s = 15e-9;  // short through-tissue excess delay
  mp.k_factor = 6.0;          // implant-to-reader is near-LOS
  cfg.multipath = mp;
  return cfg;
}

ImpairmentConfig ward_mobility_preset(Real sample_rate_hz, Real carrier_hz) {
  ImpairmentConfig cfg;
  cfg.carrier_hz = carrier_hz;
  cfg.sample_rate_hz = sample_rate_hz;
  cfg.cfo_ppm = 20.0;
  cfg.sro_ppm = 20.0;
  cfg.phase_noise_linewidth_hz = 100.0;
  cfg.adc_bits = 8;
  cfg.iq_gain_db = 0.2;
  cfg.iq_phase_deg = 1.0;
  MultipathConfig mp;
  mp.num_taps = 4;
  mp.delay_spread_s = 60e-9;  // indoor ward, moving bodies
  mp.k_factor = 1.5;          // weak LOS
  cfg.multipath = mp;
  return cfg;
}

ImpairmentConfig card_to_card_preset(Real sample_rate_hz, Real carrier_hz) {
  ImpairmentConfig cfg;
  cfg.carrier_hz = carrier_hz;
  cfg.sample_rate_hz = sample_rate_hz;
  cfg.cfo_ppm = 25.0;  // two consumer crystals, relative offset
  cfg.sro_ppm = 25.0;
  cfg.phase_noise_linewidth_hz = 150.0;
  cfg.adc_bits = 8;
  MultipathConfig mp;
  mp.num_taps = 1;   // near-field: flat
  mp.delay_spread_s = 5e-9;
  mp.k_factor = 12.0;  // strong LOS
  cfg.multipath = mp;
  return cfg;
}

std::optional<ImpairmentConfig> make_impairment_preset(ImpairmentPreset preset,
                                                       Real sample_rate_hz,
                                                       Real carrier_hz) {
  switch (preset) {
    case ImpairmentPreset::kNone:
      return std::nullopt;
    case ImpairmentPreset::kImplantTissue:
      return implant_tissue_preset(sample_rate_hz, carrier_hz);
    case ImpairmentPreset::kWardMobility:
      return ward_mobility_preset(sample_rate_hz, carrier_hz);
    case ImpairmentPreset::kCardToCard:
      return card_to_card_preset(sample_rate_hz, carrier_hz);
  }
  return std::nullopt;
}

}  // namespace itb::channel
