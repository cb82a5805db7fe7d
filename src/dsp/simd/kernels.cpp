#include "dsp/simd/kernels.h"

#include "dsp/simd/dispatch.h"

namespace itb::dsp::simd {

const KernelTable& active_kernels() {
  // active_level() is kAvx2 only when the AVX2 table was compiled in.
  return active_level() == Level::kAvx2 ? *avx2_kernels() : *scalar_kernels();
}

}  // namespace itb::dsp::simd
