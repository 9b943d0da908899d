// LSD radix sort for 64-bit keys: the sorting engine behind
// SortedPetChannel's per-trial rebuild.  Produces exactly the permutation
// std::sort would (keys are totally ordered, so any correct sort agrees),
// at O(n) per 8-bit digit pass instead of O(n log n) comparisons.
//
// Digit passes whose byte is constant across all keys are skipped, so
// H-bit PET codes (value range [0, 2^H)) pay only ceil(H/8) scatter passes.
// The caller owns the scratch buffer, which lets a trial arena reuse both
// allocations across thousands of rebuilds (docs/performance.md).
//
// radix_sort_u64_parallel adds an MSB partition over a ParallelFor
// executor: the key space is split into 256 top-digit buckets, per-worker
// chunk histograms fix every element's destination deterministically, and
// the buckets are LSD-sorted independently and concatenated in bucket
// order.  A sorted u64 array is unique, so the output is byte-identical to
// the serial sort at any worker count (tests/parallel_build_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

namespace pet {

class ParallelFor;

/// Sort `values` ascending in place.  `scratch` is resized to
/// values.size() and its previous contents are destroyed.  `key_bits` is an
/// optional promise that every value fits in the low `key_bits` bits
/// (values outside it make the result unspecified); passing the PET tree
/// height H caps both histogram and scatter work at ceil(H/8) digit passes.
void radix_sort_u64(std::vector<std::uint64_t>& values,
                    std::vector<std::uint64_t>& scratch,
                    unsigned key_bits = 64);

/// Deterministic facts about one parallel radix build, for the pet.build.*
/// obs bundle.  buckets_used / max_bucket depend only on the keys;
/// workers reflects the executor actually engaged (1 == serial fallback).
struct RadixPartitionStats {
  unsigned workers = 1;            ///< chunks the partition ran on
  unsigned buckets_used = 0;       ///< non-empty MSB buckets (of 256)
  std::uint64_t max_bucket = 0;    ///< largest bucket population
};

/// Parallel variant of radix_sort_u64: identical output, same buffer
/// contract.  `executor == nullptr`, a single-worker executor, tiny inputs,
/// or key_bits <= 8 (nothing left below the MSB digit) all fall back to the
/// serial sort.  `stats`, when non-null, receives the partition shape.
void radix_sort_u64_parallel(std::vector<std::uint64_t>& values,
                             std::vector<std::uint64_t>& scratch,
                             unsigned key_bits, ParallelFor* executor,
                             RadixPartitionStats* stats = nullptr);

}  // namespace pet
