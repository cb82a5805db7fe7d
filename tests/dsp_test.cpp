// Unit tests for the DSP substrate: FFT, windows, FIR design, mixers,
// spectrum estimation, resampling, correlation, units and RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/fir.h"
#include "dsp/mixer.h"
#include "dsp/rng.h"
#include "dsp/spectrum.h"
#include "dsp/types.h"
#include "dsp/units.h"
#include "dsp/window.h"
#include "obs/fnv1a.h"

namespace itb::dsp {
namespace {

TEST(Fft, MatchesReferenceDftOnRandomInput) {
  Xoshiro256 rng(42);
  CVec x(64);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const CVec fast = fft(x);
  const CVec slow = dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-9) << "bin " << i;
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-9) << "bin " << i;
  }
  const CVec fast_inv = ifft(x);
  const CVec slow_inv = idft(x);
  ASSERT_EQ(fast_inv.size(), slow_inv.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fast_inv[i].real(), slow_inv[i].real(), 1e-9) << "sample " << i;
    EXPECT_NEAR(fast_inv[i].imag(), slow_inv[i].imag(), 1e-9) << "sample " << i;
  }
}

TEST(Fft, InverseRoundTrips) {
  Xoshiro256 rng(43);
  CVec x(256);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  const CVec back = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  CVec x(32, Complex{0, 0});
  x[0] = {1, 0};
  const CVec f = fft(x);
  for (const auto& v : f) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  }
}

TEST(Fft, ToneLandsInSingleBin) {
  constexpr std::size_t n = 128;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real ang = kTwoPi * 5.0 * static_cast<Real>(i) / n;
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec f = fft(x);
  EXPECT_NEAR(std::abs(f[5]), static_cast<Real>(n), 1e-9);
  EXPECT_NEAR(std::abs(f[6]), 0.0, 1e-9);
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
}

TEST(Fft, FftShiftSwapsHalves) {
  RVec x = {0, 1, 2, 3};
  const RVec s = fftshift(std::span<const Real>(x));
  EXPECT_EQ(s, (RVec{2, 3, 0, 1}));
}

TEST(FftPlan, MatchesReferenceDftAcrossPlanCacheSizes) {
  Xoshiro256 rng(1234);
  for (std::size_t n : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    CVec x(n);
    for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const CVec fast = fft(x);  // goes through fft_plan(n)
    const CVec slow = dft(x);
    ASSERT_EQ(fast.size(), slow.size());
    // dft() itself accumulates O(n) rounding at these sizes; scale the
    // tolerance with sqrt(n) around the 1e-9 base.
    const Real tol = 1e-9 * std::sqrt(static_cast<Real>(n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(fast[i].real(), slow[i].real(), tol) << "n=" << n << " bin " << i;
      ASSERT_NEAR(fast[i].imag(), slow[i].imag(), tol) << "n=" << n << " bin " << i;
    }
  }
}

TEST(FftPlan, CacheReturnsSameInstance) {
  const FftPlan& a = fft_plan(256);
  const FftPlan& b = fft_plan(256);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 256u);
}

TEST(FftPlan, InverseRoundTripsThroughPlan) {
  Xoshiro256 rng(99);
  CVec x(1024);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  CVec y = x;
  const FftPlan& plan = fft_plan(1024);
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(FftPlan, OnePointTransformIsIdentity) {
  // A one-point plan has no butterfly stage; it must leave x (and the
  // memory after it) untouched in both directions.
  CVec x = {Complex{0.5, -1.25}};
  const FftPlan& plan = fft_plan(1);
  plan.forward(x);
  EXPECT_EQ(x[0], (Complex{0.5, -1.25}));
  plan.inverse(x);
  EXPECT_EQ(x[0], (Complex{0.5, -1.25}));
}

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(100), std::invalid_argument);
}

TEST(Fft, InplaceThrowsOnNonPowerOfTwoInAllBuildModes) {
  CVec x(100);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(Fft, OutOfPlaceThrowsOnNonPowerOfTwo) {
  const CVec x(100);
  EXPECT_THROW(fft(x), std::invalid_argument);
  EXPECT_THROW(ifft(x), std::invalid_argument);
  EXPECT_THROW(fft(CVec{}), std::invalid_argument);
}

TEST(Window, HannEndpointsAreZero) {
  const RVec w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-2);
}

TEST(Window, AllKindsPositiveInterior) {
  for (auto kind : {WindowKind::kRectangular, WindowKind::kHann,
                    WindowKind::kHamming, WindowKind::kBlackman}) {
    const RVec w = make_window(kind, 33);
    for (std::size_t i = 1; i + 1 < w.size(); ++i) {
      EXPECT_GT(w[i], 0.0) << static_cast<int>(kind) << " at " << i;
    }
  }
}

TEST(Fir, LowpassHasUnityDcGain) {
  const RVec taps = design_lowpass(63, 0.2);
  Real sum = 0.0;
  for (Real t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Fir, LowpassIsSymmetric) {
  const RVec taps = design_lowpass(41, 0.1);
  for (std::size_t i = 0; i < taps.size() / 2; ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-12);
  }
}

TEST(Fir, LowpassAttenuatesStopband) {
  const RVec taps = design_lowpass(101, 0.1);
  // Probe response at passband (0.02) and stopband (0.3) frequencies.
  const auto response = [&](Real f) {
    Complex acc{0, 0};
    for (std::size_t i = 0; i < taps.size(); ++i) {
      const Real ang = -kTwoPi * f * static_cast<Real>(i);
      acc += taps[i] * Complex{std::cos(ang), std::sin(ang)};
    }
    return std::abs(acc);
  };
  EXPECT_NEAR(response(0.02), 1.0, 0.05);
  EXPECT_LT(response(0.3), 0.01);
}

TEST(Fir, GaussianTapsNormalized) {
  const RVec taps = design_gaussian(0.5, 8, 3);
  Real sum = 0.0;
  for (Real t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Peak in the middle.
  const std::size_t mid = taps.size() / 2;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_LE(taps[i], taps[mid] + 1e-15);
  }
}

TEST(Fir, HalfSinePulseShape) {
  const RVec p = half_sine_pulse(8);
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[4], 1.0, 1e-12);
  EXPECT_GT(p[2], 0.5);
}

TEST(Fir, ConvolveLengthAndIdentity) {
  const CVec x = {{1, 0}, {2, 0}, {3, 0}};
  const RVec delta = {1.0};
  const CVec y = convolve(std::span<const Complex>(x), delta);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_NEAR(y[1].real(), 2.0, 1e-12);
}

TEST(Fir, FilterSamePreservesLength) {
  CVec x(100, Complex{1.0, 0.0});
  const RVec taps = design_lowpass(21, 0.2);
  const CVec y = filter_same(std::span<const Complex>(x), taps);
  EXPECT_EQ(y.size(), x.size());
  // Interior should be ~1 (DC gain 1).
  EXPECT_NEAR(y[50].real(), 1.0, 1e-9);
}

TEST(Mixer, NcoFrequencyAccuracy) {
  Nco nco(1000.0, 8000.0);
  const CVec s = nco.generate(9);
  // The first sample is at phase 0; each subsequent sample advances 1/8 turn.
  EXPECT_NEAR(s[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(s[1].real(), std::cos(kTwoPi / 8.0), 1e-12);
  EXPECT_NEAR(s[1].imag(), std::sin(kTwoPi / 8.0), 1e-12);
  // After 8 samples the phase has advanced exactly one cycle.
  EXPECT_NEAR(s[8].real(), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(s[7]), 1.0, 1e-12);
}

TEST(Spectrum, TonePowerMeasurement) {
  const Real fs = 1e6;
  const CVec x = tone(50e3, fs, 8192, /*amplitude=*/2.0);
  const Psd psd = welch_psd(x, fs);
  // Total power should be ~|A|^2 = 4.
  Real total = 0.0;
  for (Real p : psd.power_linear) total += p;
  EXPECT_NEAR(total, 4.0, 0.2);
  // Peak is at the tone frequency.
  EXPECT_NEAR(peak_frequency_hz(psd), 50e3, 2.0 * psd.bin_hz);
}

TEST(Spectrum, BandPowerSplitsTones) {
  const Real fs = 1e6;
  CVec x = tone(100e3, fs, 8192);
  const CVec x2 = tone(-200e3, fs, 8192, 0.5);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += x2[i];
  const Psd psd = welch_psd(x, fs);
  const Real p_hi = band_power(psd, 80e3, 120e3);
  const Real p_lo = band_power(psd, -220e3, -180e3);
  EXPECT_NEAR(p_hi, 1.0, 0.1);
  EXPECT_NEAR(p_lo, 0.25, 0.05);
}

TEST(Spectrum, SidebandRejectionOfCleanTone) {
  const Real fs = 1e6;
  const CVec x = tone(100e3, fs, 16384);
  const Psd psd = welch_psd(x, fs);
  const Real rej = sideband_rejection_db(psd, 90e3, 110e3, -110e3, -90e3);
  EXPECT_GT(rej, 40.0);
}

TEST(Spectrum, OccupiedBandwidthOfToneIsNarrow) {
  const Real fs = 1e6;
  const CVec x = tone(0.0, fs, 16384);
  const Psd psd = welch_psd(x, fs);
  EXPECT_LT(occupied_bandwidth_hz(psd, 0.99), 10e3);
}

TEST(Spectrum, NormalizePeakSetsMaxToZero) {
  const Real fs = 1e6;
  Psd psd = welch_psd(tone(0.0, fs, 4096), fs);
  normalize_peak(psd);
  Real mx = -1e9;
  for (Real v : psd.power_db) mx = std::max(mx, v);
  EXPECT_NEAR(mx, 0.0, 1e-12);
}

TEST(Correlate, FindsEmbeddedPattern) {
  Xoshiro256 rng(7);
  CVec noise(500);
  for (auto& v : noise) v = rng.complex_gaussian(0.01);
  CVec pattern(31);
  for (auto& v : pattern) v = {rng.bit() ? 1.0 : -1.0, 0.0};
  // Embed at offset 200.
  for (std::size_t i = 0; i < pattern.size(); ++i) noise[200 + i] += pattern[i];
  const CVec corr = cross_correlate(noise, pattern);
  EXPECT_EQ(peak_lag(corr), 200u);
  EXPECT_GT(normalized_peak(noise, pattern, 200), 0.9);
}

TEST(Correlate, ComplexPatternMatchesNaiveSumAtEveryLag) {
  // A complex pattern (the OFDM LTF's case) skips the real-pattern SIMD
  // kernel; check that branch lag by lag against the defining sum.
  Xoshiro256 rng(602);
  CVec pattern(256);
  for (auto& v : pattern) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  CVec x(4096);
  for (auto& v : x) v = 0.05 * Complex{rng.gaussian(), rng.gaussian()};
  const std::size_t embed = 1777;
  for (std::size_t k = 0; k < pattern.size(); ++k) x[embed + k] += pattern[k];
  const CVec corr = cross_correlate(x, pattern);
  ASSERT_EQ(corr.size(), x.size() - pattern.size() + 1);
  for (std::size_t i = 0; i < corr.size(); ++i) {
    Complex ref{0.0, 0.0};
    for (std::size_t k = 0; k < pattern.size(); ++k) {
      ref += x[i + k] * std::conj(pattern[k]);
    }
    ASSERT_NEAR(corr[i].real(), ref.real(), 1e-9) << "lag " << i;
    ASSERT_NEAR(corr[i].imag(), ref.imag(), 1e-9) << "lag " << i;
  }
  EXPECT_EQ(peak_lag(corr), embed);
}

TEST(Units, DbConversionsRoundTrip) {
  EXPECT_NEAR(ratio_to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_ratio(3.0), 1.995, 0.01);
  EXPECT_NEAR(watts_to_dbm(0.001), 0.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_amplitude(amplitude_to_db(3.7)), 3.7, 1e-9);
}

TEST(Units, PowerMeasures) {
  const CVec x = {{3, 4}, {3, 4}};
  EXPECT_NEAR(mean_power(std::span<const Complex>(x)), 25.0, 1e-12);
  EXPECT_NEAR(rms(std::span<const Complex>(x)), 5.0, 1e-12);
  EXPECT_NEAR(peak_magnitude(std::span<const Complex>(x)), 5.0, 1e-12);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Real v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, GaussianMomentsReasonable) {
  Xoshiro256 rng(6);
  Real sum = 0.0, sq = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Real v = rng.gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ComplexGaussianVariance) {
  Xoshiro256 rng(8);
  Real acc = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.complex_gaussian(2.0));
  EXPECT_NEAR(acc / n, 2.0, 0.1);
}

// --- ziggurat Gaussian ------------------------------------------------------

Real normal_cdf(Real x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(Rng, ZigguratMatchesStandardNormal) {
  // 5e6 draws from one seed: moments, the |g| > 4 tail mass, and a
  // chi-square over 0.1-sigma bins. Each bound is several standard errors
  // wide, so the fixed seed passes with room rather than by luck.
  constexpr std::size_t kDraws = 5'000'000;
  constexpr int kBins = 80;  // [-4, 4] in 0.1 steps, plus one |g| > 4 bin
  Xoshiro256 rng(20240601);
  std::vector<std::size_t> hist(kBins + 1, 0);
  Real s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
  std::size_t tail_draws = 0;
  std::size_t wedge_draws = 0;
  for (std::size_t n = 0; n < kDraws; ++n) {
    // A fast-path draw consumes exactly one next_u64(); anything more means
    // a slow path ran. Beyond r only the tail can have produced the value.
    Xoshiro256 one_word = rng;
    one_word.next_u64();
    const Real g = rng.gaussian();
    Xoshiro256 after = rng;
    if (one_word.next_u64() != after.next_u64()) {
      if (std::abs(g) > Ziggurat::kR) {
        ++tail_draws;
      } else {
        ++wedge_draws;
      }
    }
    s1 += g;
    s2 += g * g;
    s3 += g * g * g;
    s4 += g * g * g * g;
    const Real b = std::floor((g + 4.0) * 10.0);
    hist[b >= 0.0 && b < kBins ? static_cast<std::size_t>(b) : kBins] += 1;
  }
  const Real n = static_cast<Real>(kDraws);
  const Real mean = s1 / n;
  const Real var = s2 / n - mean * mean;
  const Real m4 = s4 / n - 4.0 * mean * s3 / n + 6.0 * mean * mean * s2 / n -
                  3.0 * mean * mean * mean * mean;
  EXPECT_NEAR(mean, 0.0, 2e-3);  // ~4.5 standard errors
  EXPECT_NEAR(var, 1.0, 3e-3);   // ~4.7 standard errors
  EXPECT_NEAR(m4 / (var * var), 3.0, 0.01);

  const Real p_beyond_4 = static_cast<Real>(hist[kBins]) / n;
  EXPECT_NEAR(p_beyond_4, 6.334e-5, 0.15 * 6.334e-5);

  Real chi2 = 0.0;
  for (int k = 0; k <= kBins; ++k) {
    const Real p = k < kBins ? normal_cdf(-4.0 + 0.1 * (k + 1)) -
                                   normal_cdf(-4.0 + 0.1 * k)
                             : 2.0 * normal_cdf(-4.0);
    const Real expected = n * p;
    const Real d = static_cast<Real>(hist[static_cast<std::size_t>(k)]) - expected;
    chi2 += d * d / expected;
  }
  // 81 categories, 80 degrees of freedom: the 0.999 quantile is 124.84.
  EXPECT_LT(chi2, 124.84);

  // Both slow paths ran, at about their design rates (tail 0.026%,
  // wedge 1.47% of draws).
  EXPECT_GT(tail_draws, 0u);
  EXPECT_GT(wedge_draws, 0u);
  EXPECT_NEAR(static_cast<Real>(tail_draws + wedge_draws) / n, 0.0149, 0.001);
}

TEST(Rng, ZigguratStreamPinned) {
  // Any change to the generator (tables, bit layout, slow paths) moves this
  // digest, and with it every seeded waveform result: change it on purpose.
  Xoshiro256 rng(1);
  obs::Fnv1a h;
  for (int i = 0; i < 4096; ++i) h.mix(rng.gaussian());
  EXPECT_EQ(h.value(), 0x59AE1DCA2A0E2FF0ULL);
}

}  // namespace
}  // namespace itb::dsp
