// The kMix64 batch kernel (see hash_simd.hpp).
//
// The SplitMix64 finalizer is three multiply/xor-shift rounds of pure
// 64-bit modular arithmetic, so an 8-lane evaluation is the same function
// as 8 scalar evaluations — there is no rounding or reassociation to
// diverge on.  AVX-512DQ supplies the native 64-bit low multiply
// (vpmullq).
//
// A per-function target attribute keeps the AVX-512 encodings out of every
// other translation unit, so the dispatcher can run on any x86-64.
#include "rng/hash_simd.hpp"

#include "common/simd.hpp"
#include "rng/prng.hpp"

#if defined(__x86_64__) || defined(_M_X64)
// GCC 12 flags the deliberately undefined __Y in avx512fintrin.h's
// _mm512_undefined_* helpers as -Wmaybe-uninitialized (GCC PR 105593,
// fixed in GCC 13).  The warning is attributed to the header, so silencing
// it around the include leaves this file's own code checked.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#endif

namespace pet::rng::detail {

namespace {

inline void scalar_tail(std::uint64_t seed_mix, const std::uint64_t* ids,
                        std::size_t begin, std::size_t n, unsigned shift,
                        std::uint64_t* out) noexcept {
  for (std::size_t i = begin; i < n; ++i) {
    out[i] = mix64(seed_mix ^ mix64(ids[i])) >> shift;
  }
}

#if defined(__x86_64__) || defined(_M_X64)

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMixA = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMixB = 0x94d049bb133111ebULL;

// The vector-typed helper below is only called between functions carrying
// the same target attribute, so the ABI caveat GCC raises for the TU's
// non-AVX baseline never applies.
#pragma GCC diagnostic ignored "-Wpsabi"

__attribute__((target("avx512f,avx512dq"))) inline __m512i mix64_avx512(
    __m512i z, __m512i gamma, __m512i mul_a, __m512i mul_b) noexcept {
  z = _mm512_add_epi64(z, gamma);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         mul_a);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         mul_b);
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

__attribute__((target("avx512f,avx512dq"))) void hash_avx512(
    std::uint64_t seed_mix, const std::uint64_t* ids, std::size_t n,
    unsigned shift, std::uint64_t* out) noexcept {
  const __m512i gamma = _mm512_set1_epi64(static_cast<long long>(kGamma));
  const __m512i mul_a = _mm512_set1_epi64(static_cast<long long>(kMixA));
  const __m512i mul_b = _mm512_set1_epi64(static_cast<long long>(kMixB));
  const __m512i seed = _mm512_set1_epi64(static_cast<long long>(seed_mix));
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i id = _mm512_loadu_si512(ids + i);
    const __m512i inner = mix64_avx512(id, gamma, mul_a, mul_b);
    const __m512i h =
        mix64_avx512(_mm512_xor_si512(seed, inner), gamma, mul_a, mul_b);
    _mm512_storeu_si512(out + i, _mm512_srl_epi64(h, count));
  }
  scalar_tail(seed_mix, ids, i, n, shift, out);
}

#endif

}  // namespace

void mix64_code_batch(std::uint64_t seed_mix, const std::uint64_t* ids,
                      std::size_t n, unsigned width, std::uint64_t* out) {
  const unsigned shift = 64 - width;  // width 64 -> shift 0, a no-op
#if defined(__x86_64__) || defined(_M_X64)
  if (simd_tier() == SimdTier::kAvx512) {
    hash_avx512(seed_mix, ids, n, shift, out);
    return;
  }
#endif
  scalar_tail(seed_mix, ids, 0, n, shift, out);
}

}  // namespace pet::rng::detail
