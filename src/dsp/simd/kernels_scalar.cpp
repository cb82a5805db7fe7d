// The scalar kernel table: kernels_spec.h compiled for the baseline ISA.
#include "dsp/simd/kernels_spec.h"

namespace itb::dsp::simd {

const KernelTable* scalar_kernels() { return &kSpecTable; }

}  // namespace itb::dsp::simd
