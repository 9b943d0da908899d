#include "common/radix.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <utility>

#include "common/ensure.hpp"
#include "common/parallel.hpp"

namespace pet {

namespace {

// Below this the pool dispatch overhead exceeds the partition itself; the
// one-chunk path also stays the one exercised by the table3-class
// per-trial sizes at --threads=1.
constexpr std::size_t kParallelPartitionMinKeys = std::size_t{1} << 14;

// How far ahead of the scatter the destination line is requested.
constexpr std::size_t kScatterAhead = 16;

// Widest prefix a partition may index: 2^16 + 1 bounds plus one 2^16-entry
// cursor row per chunk.
constexpr unsigned kMaxPrefixBits = 16;

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

// One counting pass split across the executor's fixed chunks: (1) per-chunk
// histograms of the top prefix_bits, (2) offsets laid out bucket-major then
// chunk-minor — a pure function of the keys and the chunk partition — and
// (3) a scatter into disjoint regions.  Bucket bounds are a function of the
// keys alone, and each bucket receives the same multiset whatever the
// chunking, so any query that counts or maximises over a bucket answers
// identically at every worker count.
void prefix_partition_u64(const std::vector<std::uint64_t>& keys,
                          unsigned key_bits, unsigned prefix_bits,
                          std::vector<std::uint64_t>& out,
                          std::vector<std::uint32_t>& bucket_end,
                          std::vector<std::uint32_t>& counts,
                          ParallelFor* executor,
                          PrefixPartitionStats* stats) {
  key_bits = std::min(key_bits, 64u);
  expects(prefix_bits >= 1 &&
              prefix_bits <= std::min(key_bits, kMaxPrefixBits),
          "prefix_partition_u64: prefix_bits must be in [1, min(key_bits, "
          "16)]");
  const std::size_t n = keys.size();
  expects(n < (std::size_t{1} << 32),
          "prefix_partition_u64: at most 2^32 - 1 keys");
  const std::size_t buckets = std::size_t{1} << prefix_bits;
  const std::uint64_t mask = buckets - 1;
  const unsigned shift = key_bits - prefix_bits;
  const unsigned chunks =
      executor != nullptr && n >= kParallelPartitionMinKeys
          ? std::max(executor->workers(), 1u)
          : 1u;
  const auto for_each_chunk =
      [&](const std::function<void(unsigned, std::size_t, std::size_t)>& fn) {
        if (chunks == 1) {
          fn(0, 0, n);
        } else {
          executor->run(n, fn);
        }
      };

  // One row per chunk: its histogram, then its scatter cursors.
  counts.assign(chunks * buckets, 0);
  std::uint32_t* const rows = counts.data();
  const std::uint64_t* const src = keys.data();
  for_each_chunk([&](unsigned w, std::size_t begin, std::size_t end) {
    std::uint32_t* const hist = rows + w * buckets;
    for (std::size_t i = begin; i < end; ++i) {
      ++hist[(src[i] >> shift) & mask];
    }
  });

  // Destination of chunk w's slice of bucket b: bucket-major, chunk-minor.
  bucket_end.resize(buckets + 1);
  std::uint32_t offset = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_end[b] = offset;
    for (unsigned w = 0; w < chunks; ++w) {
      std::uint32_t& cursor = rows[w * buckets + b];
      const std::uint32_t size = cursor;
      cursor = offset;
      offset += size;
    }
  }
  bucket_end[buckets] = offset;

  out.resize(n);
  std::uint64_t* const dst = out.data();
  for_each_chunk([&](unsigned w, std::size_t begin, std::size_t end) {
    std::uint32_t* const cursor = rows + w * buckets;
    for (std::size_t i = begin; i < end; ++i) {
      // Destinations are scattered over the whole output, so nearly every
      // store misses L1; requesting the line kScatterAhead keys early
      // overlaps those misses (about a quarter off the pass at 5e4 keys on
      // a 4-vCPU AVX-512 Xeon).
      if (i + kScatterAhead < end) {
        __builtin_prefetch(
            dst + cursor[(src[i + kScatterAhead] >> shift) & mask], 1);
      }
      const std::uint64_t v = src[i];
      dst[cursor[(v >> shift) & mask]++] = v;
    }
  });

  if (stats != nullptr) {
    *stats = {};
    stats->workers = chunks;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint64_t size = bucket_end[b + 1] - bucket_end[b];
      if (size != 0) ++stats->buckets_used;
      stats->max_bucket = std::max(stats->max_bucket, size);
    }
  }
}

}  // namespace pet
