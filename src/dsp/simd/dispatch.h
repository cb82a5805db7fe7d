// Runtime SIMD dispatch for the PHY kernels (see kernels.h).
//
// Exactly one kernel table is active at a time: the scalar reference, or the
// AVX2 implementation (x86-64 only) compiled into its own translation unit
// with -mavx2; every other target runs the scalar table. Selection happens
// once at startup from (a) what this binary was compiled with, (b) what the
// CPU reports at runtime, and (c) the ITB_DISABLE_SIMD environment variable;
// tests can additionally flip dispatch at runtime with set_simd_enabled().
//
// The determinism contract (DESIGN.md "PHY kernel table and dispatch
// determinism") requires every kernel to produce bit-identical results under
// any dispatch level, so which table is active is a pure performance choice
// and never leaks into results, digests, or traces.
#pragma once

namespace itb::dsp::simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// Best vector level compiled into this binary (kScalar when the AVX2 TU
/// was built without AVX2: a non-x86 target or a compiler without -mavx2).
Level compiled_level();

/// Level actually usable on this machine: compiled_level() gated by runtime
/// CPU feature detection and the ITB_DISABLE_SIMD environment variable
/// (any non-empty value other than "0" forces scalar).
Level detected_level();

/// Level the kernel dispatch is currently using. Equals detected_level()
/// unless set_simd_enabled(false) forced scalar.
Level active_level();

/// Runtime override, primarily for the parity suite and the forced-scalar
/// CI leg: set_simd_enabled(false) routes every kernel through the scalar
/// reference; set_simd_enabled(true) restores detected_level(). Thread-safe;
/// not intended to be flipped concurrently with in-flight kernels.
void set_simd_enabled(bool enabled);

/// Human-readable name for diagnostics ("scalar", "avx2").
const char* level_name(Level level);

}  // namespace itb::dsp::simd
