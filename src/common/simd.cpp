#include "common/simd.hpp"

namespace pet {

namespace {

SimdTier probe_cpu() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    return SimdTier::kAvx512;
  }
#endif
  return SimdTier::kScalar;
}

}  // namespace

std::string_view to_string(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx512: return "avx512";
  }
  return "unknown";
}

unsigned simd_lanes(SimdTier tier) noexcept {
  return tier == SimdTier::kAvx512 ? 8 : 1;
}

SimdTier detected_simd_tier() noexcept {
  static const SimdTier detected = probe_cpu();
  return detected;
}

SimdTier simd_tier() noexcept { return detected_simd_tier(); }

}  // namespace pet
