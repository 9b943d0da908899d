// Internal: the kMix64 batch kernel behind rng::uniform_code_batch.
//
// Computes out[i] = mix64(seed_mix ^ mix64(ids[i])) >> (64-width) with the
// SplitMix64 finalizer lifted onto 8 AVX-512 lanes when the CPU has them.
// The tail (n mod 8), and the whole batch on any other CPU, runs one scalar
// expression, so every output word is bit-identical regardless of tier or n
// (tests/simd_parity_test.cpp).  Dispatch follows pet::simd_tier().
#pragma once

#include <cstddef>
#include <cstdint>

namespace pet::rng::detail {

/// Batch hash at the CPU's SIMD tier.  `out` must hold `n` words; `width`
/// in [1, 64].  No alignment requirement on `ids` or `out`.
void mix64_code_batch(std::uint64_t seed_mix, const std::uint64_t* ids,
                      std::size_t n, unsigned width, std::uint64_t* out);

}  // namespace pet::rng::detail
