#include "dsp/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "dsp/simd/kernels.h"

namespace itb::dsp::simd {
namespace {

bool env_disables_simd() {
  const char* v = std::getenv("ITB_DISABLE_SIMD");
  if (v == nullptr || v[0] == '\0') return false;
  return std::strcmp(v, "0") != 0;
}

Level compute_detected() {
  if (env_disables_simd()) return Level::kScalar;
#if defined(__x86_64__) || defined(_M_X64)
  if (compiled_level() == Level::kAvx2 && __builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

Level compiled_level() {
  return avx2_kernels() != nullptr ? Level::kAvx2 : Level::kScalar;
}

Level detected_level() {
  static const Level detected = compute_detected();
  return detected;
}

Level active_level() {
  if (!enabled_flag().load(std::memory_order_relaxed)) return Level::kScalar;
  return detected_level();
}

void set_simd_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
    default:
      return "scalar";
  }
}

}  // namespace itb::dsp::simd
