#include "channel/awgn.h"

#include <cmath>

#include "dsp/units.h"
#include "obs/prof.h"

namespace itb::channel {

Real thermal_noise_dbm(Real bandwidth_hz, Real noise_figure_db) {
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

void add_noise_variance_inplace(std::span<Complex> x, Real noise_variance,
                                itb::dsp::Xoshiro256& rng) {
  static const std::size_t kZone = obs::prof_zone("phy.noise");
  const obs::ProfZone prof(kZone);
  for (Complex& v : x) v += rng.complex_gaussian(noise_variance);
}

void add_noise_snr_inplace(std::span<Complex> x, Real snr_db,
                           itb::dsp::Xoshiro256& rng) {
  const Real signal_power = itb::dsp::mean_power(x);
  const Real noise_power = signal_power / itb::dsp::db_to_ratio(snr_db);
  add_noise_variance_inplace(x, noise_power, rng);
}

CVec add_noise_variance(const CVec& x, Real noise_variance,
                        itb::dsp::Xoshiro256& rng) {
  CVec out = x;
  add_noise_variance_inplace(out, noise_variance, rng);
  return out;
}

CVec add_noise_snr(const CVec& x, Real snr_db, itb::dsp::Xoshiro256& rng) {
  CVec out = x;
  add_noise_snr_inplace(out, snr_db, rng);
  return out;
}

CVec apply_cfo(const CVec& x, Real cfo_hz, Real sample_rate_hz,
               Real initial_phase_rad) {
  CVec out(x.size());
  const Real step = itb::dsp::kTwoPi * cfo_hz / sample_rate_hz;
  Real phase = initial_phase_rad;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * Complex{std::cos(phase), std::sin(phase)};
    phase += step;
  }
  return out;
}

}  // namespace itb::channel
