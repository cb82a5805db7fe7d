// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every bench and test seeds its own Xoshiro256** instance, so runs are
// bit-identical across machines; no global RNG state exists anywhere in the
// library.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace itb::dsp {

/// One SplitMix64 step (Steele/Lea/Flood): advances the input by the
/// golden-ratio increment and mixes. The single shared definition behind
/// every counter-based substream seed in the library (core::trial_seed,
/// channel::impairment_substream, Xoshiro256 seeding) — the cross-module
/// determinism contract in DESIGN.md depends on all of them using exactly
/// this function.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Marsaglia & Tsang (2000) ziggurat for the standard normal density
/// f(x) = exp(-x^2/2): 256 layers of equal area v stacked under the curve,
/// the bottom one carrying the tail beyond r. Layer i spans [0, x[i]) and
/// f(x[i])..f(x[i+1]); x[0] = v/f(r) is the bottom layer's pseudo-width so
/// that it too has area v. Built once, at first use, by ziggurat().
struct Ziggurat {
  static constexpr std::size_t kLayers = 256;
  static constexpr Real kR = 3.6541528853610088;
  static constexpr Real kV = 0.00492867323399;

  Ziggurat();

  Real x[kLayers + 1]{};
  Real f[kLayers + 1]{};
};

inline const Ziggurat& ziggurat() {
  static const Ziggurat z;
  return z;
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Fast, high-quality, and — unlike std::mt19937 — guaranteed to produce the
/// same stream on every platform for a given seed.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      s = splitmix64(x);
      x += 0x9E3779B97F4A7C15ULL;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  Real uniform() {
    return static_cast<Real>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  Real uniform(Real lo, Real hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) { return next_u64() % n; }

  /// Single random bit.
  bool bit() { return (next_u64() >> 63) != 0; }

  /// Standard normal variate (ziggurat; one next_u64() per draw on the
  /// fast path, which ~98.5% of draws take). The low 8 bits pick the
  /// layer, bit 8 is the sign and bits 11-63 are the uniform; the sign goes
  /// straight into the IEEE sign bit, so the fast path has one branch.
  Real gaussian() {
    const Ziggurat& z = ziggurat();
    for (;;) {
      const std::uint64_t bits = next_u64();
      const std::size_t i = bits & 0xFF;
      const std::uint64_t sign = (bits & 0x100) << 55;
      const Real x = static_cast<Real>(bits >> 11) * 0x1.0p-53 * z.x[i];
      if (x < z.x[i + 1]) return with_sign(x, sign);
      if (i == 0) return with_sign(gaussian_tail(), sign);
      if (wedge_accepts(i, x)) return with_sign(x, sign);
    }
  }

  /// Circularly-symmetric complex Gaussian with total variance `variance`
  /// (variance/2 per real dimension).
  Complex complex_gaussian(Real variance) {
    const Real s = std::sqrt(variance / 2.0);
    return {s * gaussian(), s * gaussian()};
  }

 private:
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  static Real with_sign(Real x, std::uint64_t sign) {
    return std::bit_cast<Real>(std::bit_cast<std::uint64_t>(x) ^ sign);
  }

  // The rare slow paths, out of line (rng.cpp): a draw beyond r from the
  // bottom layer's tail, and the density test for a point in layer i's
  // wedge. Only these call libm.
  Real gaussian_tail();
  bool wedge_accepts(std::size_t layer, Real x);

  std::uint64_t state_[4]{};
};

}  // namespace itb::dsp
