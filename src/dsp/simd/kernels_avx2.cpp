// The AVX2 kernel table: kernels_spec.h compiled with -mavx2 (CMakeLists.txt).
// Without AVX2 (a non-x86 target) it is nullptr and dispatch stays scalar.
#include "dsp/simd/kernels.h"
#if defined(__AVX2__)
#include "dsp/simd/kernels_spec.h"
#endif

namespace itb::dsp::simd {
#if defined(__AVX2__)
const KernelTable* avx2_kernels() { return &kSpecTable; }
#else
const KernelTable* avx2_kernels() { return nullptr; }
#endif
}  // namespace itb::dsp::simd
