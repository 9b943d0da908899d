// Two layer-0 engines over 64-bit keys.
//
// radix_sort_u64 is an LSD radix sort: exactly the permutation std::sort
// would produce (keys are totally ordered, so any correct sort agrees), at
// O(n) per 8-bit digit pass instead of O(n log n) comparisons.  Digit passes
// whose byte is constant across all keys are skipped, so H-bit keys pay
// only ceil(H/8) scatter passes.  The caller owns the scratch buffer.
//
// prefix_partition_u64 is the build engine behind SortedPetChannel: one
// counting pass that groups keys by their top `prefix_bits` bits into 2^k
// contiguous buckets, leaving each bucket in an order that depends on the
// chunk geometry but never its contents.  Over a ParallelFor executor the
// per-chunk histograms fix every element's destination deterministically
// (bucket-major, chunk-minor), so the bucket boundaries and the multiset
// in each bucket are identical at any worker count
// (tests/parallel_build_test.cpp).  A serial build is the same routine run
// as one chunk.
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

/// Deterministic facts about one prefix partition, for the pet.build.* obs
/// bundle.  buckets_used / max_bucket depend only on the keys; workers
/// reflects the executor actually engaged (1 == serial).
struct PrefixPartitionStats {
  unsigned workers = 1;             ///< chunks the partition ran on
  std::uint64_t buckets_used = 0;  ///< non-empty buckets (of 2^prefix_bits)
  std::uint64_t max_bucket = 0;    ///< largest bucket population
};

/// Group `keys` (each < 2^key_bits) by their top `prefix_bits` bits:
/// `out` receives the keys bucket by bucket and `bucket_end` the 2^k + 1
/// bounds, so bucket b is out[bucket_end[b], bucket_end[b+1]).  Order
/// inside a bucket is unspecified.  `counts` is per-chunk scratch whose
/// previous contents are destroyed.  Requires keys.size() < 2^32 and
/// 1 <= prefix_bits <= min(key_bits, 16).  `executor == nullptr`, a
/// single-worker executor or a small input runs the partition as one
/// chunk; `stats`, when non-null, receives the partition shape.
void prefix_partition_u64(const std::vector<std::uint64_t>& keys,
                          unsigned key_bits, unsigned prefix_bits,
                          std::vector<std::uint64_t>& out,
                          std::vector<std::uint32_t>& bucket_end,
                          std::vector<std::uint32_t>& counts,
                          ParallelFor* executor,
                          PrefixPartitionStats* stats = nullptr);

}  // namespace pet
