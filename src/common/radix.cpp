#include "common/radix.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "common/parallel.hpp"

namespace pet {

namespace {

// Below this the pool dispatch overhead exceeds the sort itself; the serial
// engine also stays the one exercised by the table3-class per-trial sizes
// at --threads=1.
constexpr std::size_t kParallelSortMinKeys = std::size_t{1} << 14;

// LSD-sort `n >= 1` keys of `key_bits` significant bits, ping-ponging
// between the distinct equal-sized ranges `a` (the input) and `b`; returns
// whichever of the two holds the sorted run.  One read pass builds all live
// digit histograms at once; scatter passes then run only for digits that
// actually discriminate.
std::uint64_t* lsd_passes(std::uint64_t* a, std::uint64_t* b, std::size_t n,
                          unsigned key_bits) {
  const unsigned digits = (std::min(key_bits, 64u) + 7) / 8;
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned d = 0; d < digits; ++d) {
      ++counts[d][(a[i] >> (8 * d)) & 0xff];
    }
  }
  for (unsigned d = 0; d < digits; ++d) {
    std::array<std::uint32_t, 256>& count = counts[d];
    const std::uint32_t first_bucket = count[(a[0] >> (8 * d)) & 0xff];
    if (first_bucket == n) continue;  // digit constant: pass is a no-op

    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = a[i];
      b[count[(v >> (8 * d)) & 0xff]++] = v;
    }
    std::swap(a, b);
  }
  return a;
}

}  // namespace

void radix_sort_u64(std::vector<std::uint64_t>& values,
                    std::vector<std::uint64_t>& scratch,
                    unsigned key_bits) {
  const std::size_t n = values.size();
  if (n < 2) return;
  scratch.resize(n);
  if (lsd_passes(values.data(), scratch.data(), n, key_bits) !=
      values.data()) {
    // Odd number of scatter passes: the sorted run lives in scratch.
    values.swap(scratch);
  }
}

// One build's key space split across the executor: (1) per-chunk histograms
// of the MSB digit (bits [key_bits-8, key_bits)), (2) offsets laid out
// bucket-major then chunk-minor — a pure function of the keys and the fixed
// chunk partition — (3) parallel scatter into disjoint regions, (4) each of
// the 256 buckets LSD-sorted independently over the remaining low bits,
// landing back in `values` already concatenated in ascending bucket order.
// The output is the unique sorted permutation, hence byte-identical to
// radix_sort_u64 at any worker count.
void radix_sort_u64_parallel(std::vector<std::uint64_t>& values,
                             std::vector<std::uint64_t>& scratch,
                             unsigned key_bits, ParallelFor* executor,
                             RadixPartitionStats* stats) {
  if (stats != nullptr) *stats = {};
  const std::size_t n = values.size();
  key_bits = std::min(key_bits, 64u);
  const unsigned workers = executor != nullptr ? executor->workers() : 1;
  if (executor == nullptr || workers <= 1 || n < kParallelSortMinKeys ||
      key_bits <= 8) {
    // Nothing to partition (or nothing below the MSB digit to sort).
    radix_sort_u64(values, scratch, key_bits);
    return;
  }
  scratch.resize(n);
  const unsigned shift = key_bits - 8;

  std::vector<std::array<std::uint64_t, 256>> chunk_hist(workers);
  std::uint64_t* const src = values.data();
  std::uint64_t* const dst = scratch.data();
  executor->run(n, [&](unsigned w, std::size_t begin, std::size_t end) {
    std::array<std::uint64_t, 256>& hist = chunk_hist[w];
    hist.fill(0);
    for (std::size_t i = begin; i < end; ++i) {
      ++hist[(src[i] >> shift) & 0xff];
    }
  });

  // Destination of chunk w's slice of bucket b: bucket-major, chunk-minor.
  std::array<std::uint64_t, 257> bucket_start;
  std::uint64_t offset = 0;
  for (std::size_t b = 0; b < 256; ++b) {
    bucket_start[b] = offset;
    for (unsigned w = 0; w < workers; ++w) {
      const std::uint64_t count = chunk_hist[w][b];
      chunk_hist[w][b] = offset;
      offset += count;
    }
  }
  bucket_start[256] = n;

  if (stats != nullptr) {
    stats->workers = workers;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint64_t size = bucket_start[b + 1] - bucket_start[b];
      if (size != 0) ++stats->buckets_used;
      stats->max_bucket = std::max(stats->max_bucket, size);
    }
  }

  executor->run(n, [&](unsigned w, std::size_t begin, std::size_t end) {
    std::array<std::uint64_t, 256>& cursor = chunk_hist[w];
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t v = src[i];
      dst[cursor[(v >> shift) & 0xff]++] = v;
    }
  });

  // Each bucket is a contiguous run of `scratch`; its mirror range in
  // `values` serves as the ping-pong buffer, so the sorted bucket lands in
  // `values` exactly where the concatenation-by-bucket-index order puts it.
  executor->run(256, [&](unsigned, std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      const std::uint64_t lo = bucket_start[b];
      const std::size_t size = bucket_start[b + 1] - lo;
      if (size == 0) continue;
      const std::uint64_t* sorted =
          lsd_passes(dst + lo, src + lo, size, shift);
      if (sorted != src + lo) std::copy(sorted, sorted + size, src + lo);
    }
  });
}

}  // namespace pet
