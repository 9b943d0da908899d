// SIMD dispatch tier for the batch hashing kernel
// (src/rng/hash_simd.cpp, docs/performance.md).
//
// The vectorized kernel is bit-identical to the scalar expression it
// replaces — the mix64 finalizer is pure 64-bit integer arithmetic, so lane
// width cannot change a single output bit (tests/simd_parity_test.cpp).
//
// The tier is a pure function of the CPU, probed once at startup:
// AVX-512F+DQ on x86-64 when present, scalar everywhere else.
#pragma once

#include <cstdint>
#include <string_view>

namespace pet {

enum class SimdTier : std::uint8_t {
  kScalar = 0,  ///< portable scalar loop (always available)
  kAvx512 = 1,  ///< x86-64 AVX-512F+DQ, 8 x 64-bit lanes (native multiply)
};

[[nodiscard]] std::string_view to_string(SimdTier tier) noexcept;

/// Number of 64-bit lanes a tier processes per vector: 1 or 8.
[[nodiscard]] unsigned simd_lanes(SimdTier tier) noexcept;

/// Highest tier this CPU supports (probed once, constant thereafter).
[[nodiscard]] SimdTier detected_simd_tier() noexcept;

/// Tier the kernels dispatch on; always detected_simd_tier().
[[nodiscard]] SimdTier simd_tier() noexcept;

}  // namespace pet
