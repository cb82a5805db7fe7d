// Runtime-dispatched PHY kernels with dispatch-invariant numerics.
//
// Every kernel is defined by a *numeric specification*: a fixed sequence of
// IEEE-754 double operations per output element, documented below. Each
// kernel is written once, as plain loops, in kernels_spec.h; the scalar and
// AVX2 tables are that source compiled twice (kernels_scalar.cpp, and
// kernels_avx2.cpp with -mavx2). They agree bit for bit because both TUs
// compile with -ffp-contract=off and without -ffast-math (no FMA, no
// reassociation), and because the loops vectorise ACROSS outputs: each
// output still walks k = 0,1,2,... in one accumulator starting at 0.0.
//
// The table holds only kernels that a benchmark workload calls. Adding a
// kernel: document its operation order here, write it once in
// kernels_spec.h, and add a per-output reference for it to the parity suite
// (tests/simd_parity_test.cpp), which memcmps both tables against it. Raw
// intrinsics are banned everywhere (detlint's simd-intrinsics rule).
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace itb::dsp::simd {

struct KernelTable {
  // Sliding correlation against a real pattern: for each lag i in
  // [0, nx - np], out[i] = sum_{k=0}^{np-1} x[i+k] * p[k], k ascending,
  // single accumulator per output (re += xr*pk, im += xi*pk).
  void (*correlate_real)(const Complex* x, std::size_t nx, const Real* p,
                         std::size_t np, Complex* out);

  // Block despread: out[s] = (sum_{k=0}^{np-1} chips[s*np + k] * p[k]) / divisor
  // for s in [0, nsym), k ascending (re += cr*pk, im += ci*pk), then one
  // IEEE divide by `divisor`.
  void (*despread_real)(const Complex* chips, const Real* p, std::size_t np,
                        std::size_t nsym, Real divisor, Complex* out);

  // acc[j] += s * conj(p[j]) for j in [0, n): per element
  // re += sr*pr - si*(-pi), im += sr*(-pi) + si*pr (matches
  // std::complex s * conj(p) exactly).
  void (*accum_scaled_conj)(Complex* acc, const Complex* p, Complex s,
                            std::size_t n);

  // Causal complex FIR with ramp-in: y[i] = sum_{k=0}^{min(nt-1, i)}
  // taps[k] * x[i - k], k ascending; per element re += tr*xr - ti*xi,
  // im += tr*xi + ti*xr. y must not alias x.
  void (*fir_causal_complex)(const Complex* x, std::size_t n,
                             const Complex* taps, std::size_t nt, Complex* y);

  // v = alpha * v + beta * conj(v) in place: t1 = alpha * v and
  // t2 = beta * conj(v) via the std::complex finite-math formula, then
  // v = t1 + t2 (exact std::complex operator order).
  void (*iq_imbalance)(Complex* v, Complex alpha, Complex beta, std::size_t n);

  // Mid-rise ADC quantizer on 2n doubles, in place: c = min(max(d, -fs),
  // fs - step); d' = (floor(c / step) + 0.5) * step. NaN inputs are the
  // caller's problem (the impairment chain never produces them here).
  void (*quantize_midrise)(Complex* x, Real full_scale, Real step,
                           std::size_t n);
};

/// The scalar table (always available).
const KernelTable* scalar_kernels();

/// The AVX2 table; nullptr when its TU was compiled without AVX2.
const KernelTable* avx2_kernels();

/// Table for the current dispatch level (see dispatch.h).
const KernelTable& active_kernels();

}  // namespace itb::dsp::simd
