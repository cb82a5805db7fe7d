// Fixture: raw vector intrinsics must be flagged wherever they appear.
// Kernels are plain loops in src/dsp/simd/kernels_spec.h that the compiler
// vectorises, so no directory is exempt.
#include <immintrin.h>  // EXPECT-DETLINT: simd-intrinsics

void avx2_sum(const double* x, double* out) {
  __m256d acc = _mm256_setzero_pd();  // EXPECT-DETLINT: simd-intrinsics
  acc = _mm256_add_pd(acc, _mm256_loadu_pd(x));  // EXPECT-DETLINT: simd-intrinsics
  _mm256_storeu_pd(out, acc);  // EXPECT-DETLINT: simd-intrinsics
}

void neon_sum(const float* x, float* out) {
  float32x4_t a = vld1q_f32(x);  // EXPECT-DETLINT: simd-intrinsics
  vst1q_f32(out, vaddq_f32(a, a));  // EXPECT-DETLINT: simd-intrinsics
}
