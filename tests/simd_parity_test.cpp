// SIMD/scalar parity battery for the batch hashing kernel
// (src/rng/hash_simd.cpp): the production uniform_code_batch must produce
// exactly the words the element-wise uniform_code oracle does — across
// widths, every tail length 0..4*lanes, unaligned buffers, and the
// degenerate counts around one vector's worth of ids.  On an AVX-512 host
// this pins the vector kernel and its scalar tail; on any other host the
// whole batch runs that same scalar tail, and the battery pins it instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/simd.hpp"
#include "rng/hash_family.hpp"
#include "rng/hash_simd.hpp"
#include "rng/prng.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

std::vector<TagId> make_ids(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

std::vector<std::uint64_t> batch(rng::HashKind kind, std::uint64_t seed,
                                 const std::vector<TagId>& ids,
                                 unsigned width) {
  std::vector<std::uint64_t> out;
  rng::uniform_code_batch(kind, seed, ids, width, out);
  return out;
}

std::vector<std::uint64_t> element_wise(rng::HashKind kind,
                                        std::uint64_t seed,
                                        const std::vector<TagId>& ids,
                                        unsigned width) {
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (const TagId id : ids) {
    out.push_back(rng::uniform_code(kind, seed, id, width).value());
  }
  return out;
}

// The AVX-512 kernel's vector width; a scalar host walks the same counts.
constexpr std::size_t kLanes = 8;

TEST(SimdParity, TierMetadataIsConsistent) {
  EXPECT_EQ(simd_lanes(SimdTier::kScalar), 1u);
  EXPECT_EQ(simd_lanes(SimdTier::kAvx512), 8u);
  EXPECT_EQ(to_string(SimdTier::kScalar), "scalar");
  EXPECT_EQ(to_string(SimdTier::kAvx512), "avx512");
  // Dispatch is a pure function of the CPU.
  EXPECT_EQ(simd_tier(), detected_simd_tier());
  // Repro claim 9 reports which kernel this run pinned.
  std::printf("SIMD tier: %s (%u lanes)\n", to_string(simd_tier()).data(),
              simd_lanes(simd_tier()));
}

// Seeded fuzz: random (n, width, seed) cases, byte-compared to the
// element-wise oracle.  Mirrors the RadixSortMatchesStdSortFuzz shape.
TEST(SimdParity, FuzzAllTiersMatchScalar) {
  SCOPED_TRACE(testing::Message() << "tier " << to_string(simd_tier()));
  rng::SplitMix64 gen(0x51d5eedULL);
  for (int c = 0; c < 60; ++c) {
    const std::size_t n = static_cast<std::size_t>(gen() % 3000);
    const unsigned width = 1 + static_cast<unsigned>(gen() % 64);
    const std::uint64_t seed = gen();
    const auto ids = make_ids(n, gen());
    ASSERT_EQ(batch(rng::HashKind::kMix64, seed, ids, width),
              element_wise(rng::HashKind::kMix64, seed, ids, width))
        << "case " << c << " n=" << n << " width=" << width
        << " seed=" << seed;
  }
}

// Every tail length 0..4*lanes: the kernel peels whole vectors, so each n
// in this range lands a different (vector count, tail length) pair,
// including tail == 0 and the all-tail n < lanes cases.
TEST(SimdParity, EveryTailLengthMatchesScalar) {
  rng::SplitMix64 gen(0x7a11ULL);
  for (std::size_t n = 0; n <= 4 * kLanes; ++n) {
    const std::uint64_t seed = gen();
    const auto ids = make_ids(n, 0xbeefULL + n);
    for (const unsigned width : {1u, 13u, 32u, 64u}) {
      ASSERT_EQ(batch(rng::HashKind::kMix64, seed, ids, width),
                element_wise(rng::HashKind::kMix64, seed, ids, width))
          << to_string(simd_tier()) << " n=" << n << " width=" << width;
    }
  }
}

// n in {0, 1, lanes-1, lanes, lanes+1}: the boundary counts around one
// vector's worth of ids, where a peeling off-by-one would read or write
// past the batch.
TEST(SimdParity, VectorBoundaryCountsMatchScalar) {
  rng::SplitMix64 gen(0xb0daULL);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kLanes - 1,
                              kLanes, kLanes + 1}) {
    const std::uint64_t seed = gen();
    const auto ids = make_ids(n, seed ^ 0x1d5ULL);
    ASSERT_EQ(batch(rng::HashKind::kMix64, seed, ids, 32),
              element_wise(rng::HashKind::kMix64, seed, ids, 32))
        << to_string(simd_tier()) << " n=" << n;
  }
}

// Unaligned input and output: the kernel uses unaligned loads/stores, so a
// span starting one word into an allocation (8-byte aligned, off every
// vector boundary) must hash identically, and the words around it must
// stay untouched.  This drives the internal kernel entry point directly to
// control the output pointer too.
TEST(SimdParity, UnalignedBuffersMatchOracle) {
  constexpr std::uint64_t kSeed = 0xa15ea5e5ULL;
  const std::uint64_t seed_mix = rng::mix64(kSeed ^ 0x9e3779b97f4a7c15ULL);
  const auto aligned_ids = make_ids(130, 0x0ddba11ULL);

  std::vector<std::uint64_t> id_storage(aligned_ids.size() + 1, 0);
  for (std::size_t i = 0; i < aligned_ids.size(); ++i) {
    id_storage[i + 1] = to_underlying(aligned_ids[i]);
  }
  std::vector<std::uint64_t> out_storage(aligned_ids.size() + 2, 0);

  for (const unsigned width : {7u, 32u, 64u}) {
    std::fill(out_storage.begin(), out_storage.end(), 0);
    rng::detail::mix64_code_batch(seed_mix, id_storage.data() + 1,
                                  aligned_ids.size(), width,
                                  out_storage.data() + 1);
    EXPECT_EQ(out_storage.front(), 0u) << "width=" << width;
    EXPECT_EQ(out_storage.back(), 0u) << "width=" << width;
    for (std::size_t i = 0; i < aligned_ids.size(); ++i) {
      ASSERT_EQ(out_storage[i + 1],
                rng::uniform_code(rng::HashKind::kMix64, kSeed,
                                  aligned_ids[i], width)
                    .value())
          << to_string(simd_tier()) << " width=" << width << " i=" << i;
    }
  }
}

// The digest-based families never reach the SIMD kernel; their batch path
// is the element-wise loop.
TEST(SimdParity, DigestFamiliesUnaffectedByTier) {
  const auto ids = make_ids(33, 0xd16e57ULL);
  for (const rng::HashKind kind : {rng::HashKind::kMd5, rng::HashKind::kSha1}) {
    EXPECT_EQ(batch(kind, 0x1234ULL, ids, 32),
              element_wise(kind, 0x1234ULL, ids, 32))
        << to_string(kind);
  }
}

}  // namespace
