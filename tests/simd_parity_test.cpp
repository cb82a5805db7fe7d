// Parity suite for the dispatch-invariant PHY kernels (dsp/simd). Both
// kernel tables are compiled from one source (kernels_spec.h), so comparing
// them with each other cannot catch a loop reshape that changes bits.
// Instead every table is checked BIT-FOR-BIT (memcmp) against the
// independent per-output reference below (namespace ref), over odd lengths,
// misaligned spans, tails and tap counts: the contract is exact equality,
// not tolerance. Integration-level parity runs whole receive-chain pieces
// with SIMD toggled at runtime, and the Monte-Carlo digest check pins
// bit-identical sweeps (2 Mbps ward preset and 11 Mbps CCK implant preset)
// across 1/2/8 threads with and without SIMD.
//
// avx2_kernels() is checked whenever it was compiled in, whatever the
// runtime dispatch level; the CI forced-scalar leg (ITB_DISABLE_SIMD=1)
// additionally runs the integration tests on the scalar table.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "channel/impairments.h"
#include "core/monte_carlo.h"
#include "dsp/correlate.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/kernels.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "wifi/qam.h"
#include "zigbee/oqpsk.h"

namespace itb::dsp::simd {
namespace {

// The kernels as plain per-output loops: the numeric specification of
// kernels.h, kept independent of the library's loop shapes.
namespace ref {

void correlate_real(const Complex* x, std::size_t nx, const Real* p,
                    std::size_t np, Complex* out) {
  for (std::size_t i = 0; i + np <= nx; ++i) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      ar += x[i + k].real() * p[k];
      ai += x[i + k].imag() * p[k];
    }
    out[i] = Complex(ar, ai);
  }
}

void despread_real(const Complex* chips, const Real* p, std::size_t np,
                   std::size_t nsym, Real divisor, Complex* out) {
  for (std::size_t s = 0; s < nsym; ++s) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      ar += chips[s * np + k].real() * p[k];
      ai += chips[s * np + k].imag() * p[k];
    }
    out[s] = Complex(ar / divisor, ai / divisor);
  }
}

void accum_scaled_conj(Complex* acc, const Complex* p, Complex s,
                       std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const Real pr = p[j].real();
    const Real npi = -p[j].imag();
    acc[j] = Complex(acc[j].real() + (s.real() * pr - s.imag() * npi),
                     acc[j].imag() + (s.real() * npi + s.imag() * pr));
  }
}

void fir_causal_complex(const Complex* x, std::size_t n, const Complex* taps,
                        std::size_t nt, Complex* y) {
  for (std::size_t i = 0; i < n; ++i) {
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < nt && k <= i; ++k) {
      const Real tr = taps[k].real();
      const Real ti = taps[k].imag();
      const Real xr = x[i - k].real();
      const Real xi = x[i - k].imag();
      ar += tr * xr - ti * xi;
      ai += tr * xi + ti * xr;
    }
    y[i] = Complex(ar, ai);
  }
}

void iq_imbalance(Complex* v, Complex alpha, Complex beta, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Real vr = v[i].real();
    const Real vi = v[i].imag();
    const Real t1r = alpha.real() * vr - alpha.imag() * vi;
    const Real t1i = alpha.real() * vi + alpha.imag() * vr;
    const Real t2r = beta.real() * vr - beta.imag() * -vi;
    const Real t2i = beta.real() * -vi + beta.imag() * vr;
    v[i] = Complex(t1r + t2r, t1i + t2i);
  }
}

void quantize_midrise(Complex* x, Real full_scale, Real step, std::size_t n) {
  Real* d = reinterpret_cast<Real*>(x);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const Real c = std::min(std::max(d[i], -full_scale), full_scale - step);
    d[i] = (std::floor(c / step) + 0.5) * step;
  }
}

}  // namespace ref

/// The tables under test: the scalar table, and the AVX2 table whenever it
/// was compiled in and this CPU can run it, even if ITB_DISABLE_SIMD keeps
/// dispatch on scalar.
std::vector<const KernelTable*> tables_under_test() {
  std::vector<const KernelTable*> tables = {scalar_kernels()};
#if defined(__x86_64__) || defined(_M_X64)
  if (avx2_kernels() != nullptr && __builtin_cpu_supports("avx2")) {
    tables.push_back(avx2_kernels());
  }
#endif
  return tables;
}

/// Scoped runtime SIMD toggle; restores the default (enabled) on exit.
class SimdGuard {
 public:
  explicit SimdGuard(bool enabled) { set_simd_enabled(enabled); }
  ~SimdGuard() { set_simd_enabled(true); }
};

CVec random_cvec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(splitmix64(seed));
  CVec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

RVec random_rvec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(splitmix64(seed));
  RVec v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

::testing::AssertionResult BitsEqual(std::span<const Complex> a,
                                     std::span<const Complex> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Complex)) != 0)
      return ::testing::AssertionFailure()
             << "first divergence at [" << i << "]: (" << a[i].real() << ","
             << a[i].imag() << ") vs (" << b[i].real() << "," << b[i].imag()
             << ")";
  }
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

// Lengths covering the vector width (2 or 4 lanes), odd tails, and sizes
// around the unroll boundaries.
const std::size_t kLengths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                11, 13, 15, 16, 17, 23, 31, 32, 33,
                                63, 64, 65, 67, 128, 129};

/// Runs `op` on misaligned copies of the same data — once per table under
/// test, once with the reference — and bit-compares. `op(kernel, data_span)`
/// mutates data_span in place; `kernel` is a member pointer into the table,
/// or nullptr for the reference.
template <typename Op>
void check_inplace(std::size_t n, std::uint64_t seed, const Op& op) {
  // One leading element makes .data()+1 16-byte (not 32-byte) aligned: every
  // vectorised kernel must go through unaligned loads.
  const CVec base = random_cvec(n + 1, seed);
  CVec want = base;
  op(nullptr, std::span<Complex>(want).subspan(1));
  for (const KernelTable* table : tables_under_test()) {
    CVec got = base;
    op(table, std::span<Complex>(got).subspan(1));
    EXPECT_TRUE(BitsEqual(got, want)) << "n=" << n;
  }
}

/// Output buffer prefilled with a value no kernel produces here, so a kernel
/// that reads its output before writing it shows up as a divergence.
CVec poisoned(std::size_t n) { return CVec(n, Complex{7.0, -7.0}); }

TEST(SimdParity, CorrelateReal) {
  for (std::size_t nx : kLengths) {
    for (std::size_t np : {std::size_t{1}, std::size_t{3}, std::size_t{11}}) {
      if (np > nx) continue;
      const CVec x = random_cvec(nx + 1, 6000 + nx * 7 + np);
      const RVec pr = random_rvec(np, 6500 + np);
      const std::size_t nout = nx - np + 1;
      CVec want = poisoned(nout);
      ref::correlate_real(x.data() + 1, nx, pr.data(), np, want.data());
      for (const KernelTable* table : tables_under_test()) {
        CVec got = poisoned(nout);
        table->correlate_real(x.data() + 1, nx, pr.data(), np, got.data());
        EXPECT_TRUE(BitsEqual(got, want)) << "nx=" << nx << " np=" << np;
      }
    }
  }
}

TEST(SimdParity, DespreadReal) {
  for (std::size_t np : {std::size_t{7}, std::size_t{11}, std::size_t{16}}) {
    for (std::size_t nsym :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
          std::size_t{9}}) {
      const CVec chips = random_cvec(np * nsym + 1, 7000 + np * 31 + nsym);
      const RVec p = random_rvec(np, 7500 + np);
      const Real div = static_cast<Real>(np);
      CVec want = poisoned(nsym);
      ref::despread_real(chips.data() + 1, p.data(), np, nsym, div,
                         want.data());
      for (const KernelTable* table : tables_under_test()) {
        CVec got = poisoned(nsym);
        table->despread_real(chips.data() + 1, p.data(), np, nsym, div,
                             got.data());
        EXPECT_TRUE(BitsEqual(got, want)) << "np=" << np << " nsym=" << nsym;
      }
    }
  }
}

TEST(SimdParity, AccumScaledConj) {
  for (std::size_t n : kLengths) {
    const CVec p = random_cvec(n + 1, 8000 + n);
    const Complex s = random_cvec(1, 8500 + n)[0];
    check_inplace(n, 8600 + n, [&](const KernelTable* k, std::span<Complex> acc) {
      if (k == nullptr) {
        ref::accum_scaled_conj(acc.data(), p.data() + 1, s, acc.size());
      } else {
        k->accum_scaled_conj(acc.data(), p.data() + 1, s, acc.size());
      }
    });
  }
}

TEST(SimdParity, FirCausalComplex) {
  for (std::size_t n : kLengths) {
    for (std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{9}}) {
      const CVec x = random_cvec(n + 1, 10000 + n * 3 + nt);
      const CVec taps = random_cvec(nt, 10500 + nt);
      CVec want = poisoned(n);
      ref::fir_causal_complex(x.data() + 1, n, taps.data(), nt, want.data());
      for (const KernelTable* table : tables_under_test()) {
        CVec got = poisoned(n);
        table->fir_causal_complex(x.data() + 1, n, taps.data(), nt,
                                  got.data());
        EXPECT_TRUE(BitsEqual(got, want)) << "n=" << n << " nt=" << nt;
      }
    }
  }
}

TEST(SimdParity, IqImbalance) {
  const Complex alpha{0.98, 0.02};
  const Complex beta{0.015, -0.01};
  for (std::size_t n : kLengths) {
    check_inplace(n, 11000 + n, [&](const KernelTable* k, std::span<Complex> x) {
      if (k == nullptr) {
        ref::iq_imbalance(x.data(), alpha, beta, x.size());
      } else {
        k->iq_imbalance(x.data(), alpha, beta, x.size());
      }
    });
  }
}

TEST(SimdParity, QuantizeMidrise) {
  // Scale some samples far outside full_scale so both clamp branches run.
  for (std::size_t n : kLengths) {
    check_inplace(n, 12000 + n, [&](const KernelTable* k, std::span<Complex> x) {
      for (std::size_t i = 0; i < x.size(); i += 3) x[i] *= 10.0;
      if (k == nullptr) {
        ref::quantize_midrise(x.data(), 2.0, 2.0 / 64.0, x.size());
      } else {
        k->quantize_midrise(x.data(), 2.0, 2.0 / 64.0, x.size());
      }
    });
  }
}

// --- integration-level parity: receive-chain pieces with SIMD toggled -----

TEST(SimdParity, CrossCorrelateDirectDispatchInvariant) {
  // A real-valued pattern takes the dispatched correlate_real path.
  const CVec x = random_cvec(777, 16000);
  CVec p = random_cvec(31, 16001);
  for (Complex& v : p) v = Complex{v.real(), 0.0};
  const CVec with = cross_correlate(x, p);
  SimdGuard off(false);
  const CVec without = cross_correlate(x, p);
  EXPECT_TRUE(BitsEqual(with, without));
}

TEST(SimdParity, BarkerDespreadDispatchInvariant) {
  const CVec chips = random_cvec(11 * 37, 17000);
  const CVec with = itb::wifi::despread(chips);
  SimdGuard off(false);
  const CVec without = itb::wifi::despread(chips);
  EXPECT_TRUE(BitsEqual(with, without));
}

TEST(SimdParity, CckDemodulateDispatchInvariant) {
  itb::wifi::CckModulator mod(itb::wifi::DsssRate::k11Mbps);
  Xoshiro256 rng(splitmix64(18000));
  itb::phy::Bits bits(8 * 32);
  for (auto& b : bits) b = rng.bit();
  CVec chips;
  mod.modulate(bits, chips);
  for (auto& c : chips) c += rng.complex_gaussian(0.05);
  itb::wifi::CckDemodulator demod(itb::wifi::DsssRate::k11Mbps);
  const itb::phy::Bits with = demod.demodulate(chips);
  SimdGuard off(false);
  itb::wifi::CckDemodulator demod2(itb::wifi::DsssRate::k11Mbps);
  const itb::phy::Bits without = demod2.demodulate(chips);
  EXPECT_EQ(with, without);
}

TEST(SimdParity, ZigbeeSoftDespreadDispatchInvariant) {
  const itb::zigbee::OqpskModulator mod;
  const itb::zigbee::OqpskDemodulator demod;
  const itb::phy::Bytes payload = {0x12, 0x34, 0xAB, 0xCD, 0x5A};
  Xoshiro256 rng(splitmix64(19000));
  CVec wave = mod.modulate_bytes(payload);
  for (auto& v : wave) v += rng.complex_gaussian(0.02);
  const CVec soft = demod.soft_chips(wave, 0);
  const itb::phy::Bytes with = demod.soft_chips_to_bytes(soft);
  SimdGuard off(false);
  const itb::phy::Bytes without = demod.soft_chips_to_bytes(soft);
  EXPECT_EQ(with, without);
}

TEST(SimdParity, ImpairmentChainDispatchInvariant) {
  itb::channel::ImpairmentConfig cfg =
      itb::channel::ward_mobility_preset(11e6);
  const itb::channel::ImpairmentChain chain(cfg);
  const CVec x = random_cvec(2048, 20000);
  const CVec with = chain.apply(x, 99, 3);
  SimdGuard off(false);
  const CVec without = chain.apply(x, 99, 3);
  EXPECT_TRUE(BitsEqual(with, without));
}

TEST(SimdParity, QamDemodulateDispatchInvariant) {
  const CVec syms = random_cvec(600, 21000);
  const itb::phy::Bits with =
      itb::wifi::qam_demodulate(syms, itb::wifi::Modulation::k64Qam);
  SimdGuard off(false);
  const itb::phy::Bits without =
      itb::wifi::qam_demodulate(syms, itb::wifi::Modulation::k64Qam);
  EXPECT_EQ(with, without);
}

// --- Monte-Carlo digest: threads x SIMD ---------------------------------

/// Runs `cfg` over `grid` at 1/2/8 threads with SIMD on and off and
/// expects every run's PER bytewise equal to the first.
void expect_sweep_bit_identical(itb::core::MonteCarloConfig cfg,
                                const std::vector<double>& grid) {
  std::vector<std::vector<itb::core::PerPoint>> runs;
  for (bool simd_on : {true, false}) {
    SimdGuard guard(simd_on);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      cfg.num_threads = threads;
      runs.push_back(itb::core::per_vs_snr(cfg, grid));
    }
  }
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size()) << "run " << r;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(std::memcmp(&runs[r][i].per_monte_carlo,
                            &runs[0][i].per_monte_carlo, sizeof(double)),
                0)
          << "run " << r << " point " << i;
      EXPECT_EQ(runs[r][i].trials, runs[0][i].trials);
    }
  }
}

TEST(SimdParity, MonteCarloSweepBitIdenticalAcrossThreadsAndDispatch) {
  itb::core::MonteCarloConfig cfg;
  cfg.trials_per_point = 6;
  cfg.psdu_bytes = 16;
  cfg.seed = 7171;
  cfg.impairments = itb::channel::ward_mobility_preset(11e6);
  expect_sweep_bit_identical(cfg, {0.0, 6.0});

  // The implant workload: 11 Mbps CCK through the implant-tissue preset,
  // which drives the receiver's correlate_real and despread_real plus the
  // FIR, IQ and quantizer kernels of the impairment chain.
  cfg.rate = itb::wifi::DsssRate::k11Mbps;
  cfg.impairments = itb::channel::implant_tissue_preset(11e6);
  expect_sweep_bit_identical(cfg, {4.0, 10.0, 16.0});
}

// --- dispatch plumbing ---------------------------------------------------

TEST(SimdDispatch, RuntimeToggleSelectsScalarTable) {
  EXPECT_EQ(&active_kernels(), &active_kernels());
  {
    SimdGuard off(false);
    EXPECT_EQ(active_level(), Level::kScalar);
    EXPECT_EQ(&active_kernels(), scalar_kernels());
  }
  // Restored default: active equals detected.
  EXPECT_EQ(active_level(), detected_level());
}

TEST(SimdDispatch, CompiledAndDetectedAreConsistent) {
  // detected can never exceed compiled, and the scalar table always exists.
  if (detected_level() == Level::kAvx2) {
    EXPECT_NE(avx2_kernels(), nullptr);
  }
  EXPECT_NE(scalar_kernels(), nullptr);
}

}  // namespace
}  // namespace itb::dsp::simd
