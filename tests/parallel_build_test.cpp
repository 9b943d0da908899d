// Prefix-partition conformance (src/common/radix.cpp,
// src/runtime/parallel_exec.cpp) and the SortedPetChannel index built on it.
// One build's keys split across workers must land in the same bucket bounds
// with the same multiset in every bucket — for any worker count, any chunk
// geometry, and the adversarial key shapes that stress the partition
// (all-equal keys, one hot bucket, pre-sorted, reverse-sorted).  At the
// channel level, every depth and prefix count must match a std::sort +
// lower_bound reference at build workers 1/2/8, and rebuild(seed) through a
// registered build executor must leave every estimate bit-identical to the
// serial path, including the H = 64 wrap cases fastpath_test pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "common/ensure.hpp"
#include "common/parallel.hpp"
#include "common/radix.hpp"
#include "core/estimator.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "runtime/parallel_exec.hpp"
#include "runtime/thread_pool.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

// Deterministic inline executor: same fixed chunk partition as the pool
// implementation, run on the calling thread.  Lets the battery sweep
// worker counts (including pathological ones) without spinning up pools.
class InlineParallelFor final : public ParallelFor {
 public:
  explicit InlineParallelFor(unsigned workers) : workers_(workers) {}

  [[nodiscard]] unsigned workers() const noexcept override {
    return workers_;
  }

  void run(std::size_t n,
           const std::function<void(unsigned, std::size_t, std::size_t)>& fn)
      override {
    for (unsigned w = 0; w < workers_; ++w) {
      const std::size_t begin = chunk_begin(n, workers_, w);
      const std::size_t end = chunk_begin(n, workers_, w + 1);
      if (begin != end) fn(w, begin, end);
    }
  }

 private:
  unsigned workers_;
};

// Restores serial builds on scope exit: a failing assertion must not leak
// a registered build pool into unrelated tests.
class BuildParallelismGuard {
 public:
  explicit BuildParallelismGuard(unsigned threads) {
    runtime::configure_build_parallelism(threads);
  }
  ~BuildParallelismGuard() { runtime::configure_build_parallelism(1); }
  BuildParallelismGuard(const BuildParallelismGuard&) = delete;
  BuildParallelismGuard& operator=(const BuildParallelismGuard&) = delete;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_result_identical(const core::EstimateResult& got,
                             const core::EstimateResult& want) {
  EXPECT_EQ(bits(got.n_hat), bits(want.n_hat));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(bits(got.mean_depth), bits(want.mean_depth));
  EXPECT_EQ(got.depths, want.depths);
  EXPECT_EQ(got.ledger.idle_slots, want.ledger.idle_slots);
  EXPECT_EQ(got.ledger.singleton_slots, want.ledger.singleton_slots);
  EXPECT_EQ(got.ledger.collision_slots, want.ledger.collision_slots);
  EXPECT_EQ(got.ledger.reader_bits, want.ledger.reader_bits);
  EXPECT_EQ(got.ledger.tag_bits, want.ledger.tag_bits);
  EXPECT_EQ(bits(got.ledger.airtime_us), bits(want.ledger.airtime_us));
}

std::vector<TagId> make_ids(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

// Adversarial key generators.  Sizes sit above the one-chunk threshold so
// the chunked partition actually engages.
std::vector<std::uint64_t> adversarial_keys(int shape, std::size_t n,
                                            unsigned key_bits,
                                            rng::SplitMix64& gen) {
  const std::uint64_t mask = key_bits == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << key_bits) - 1;
  std::vector<std::uint64_t> keys(n);
  switch (shape) {
    case 0:  // uniform over the key range
      for (auto& k : keys) k = gen() & mask;
      break;
    case 1:  // all-equal keys: one bucket holds everything, zero low spread
      for (auto& k : keys) k = 0x5eedULL & mask;
      break;
    case 2: {  // one hot bucket: 99% share the top byte, 1% scattered
      const std::uint64_t hot_top = (mask >> 1) & ~(mask >> 8);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = (i % 100 == 0) ? (gen() & mask)
                                 : (hot_top | (gen() & (mask >> 8)));
      }
      break;
    }
    case 3:  // pre-sorted
      for (std::size_t i = 0; i < n; ++i) keys[i] = (i * 7919) & mask;
      std::sort(keys.begin(), keys.end());
      break;
    default:  // reverse-sorted
      for (std::size_t i = 0; i < n; ++i) keys[i] = (i * 104729) & mask;
      std::sort(keys.begin(), keys.end(), std::greater<>());
      break;
  }
  return keys;
}

// The partition of `keys` by their top `prefix_bits`, and each bucket's
// contents sorted (the multiset, independent of the order inside it).
struct Partition {
  std::vector<std::uint32_t> bucket_end;
  std::vector<std::uint64_t> sorted_buckets;
  PrefixPartitionStats stats;
};

Partition partition(const std::vector<std::uint64_t>& keys, unsigned key_bits,
                    unsigned prefix_bits, ParallelFor* executor) {
  Partition p;
  std::vector<std::uint64_t> out;
  std::vector<std::uint32_t> counts;
  prefix_partition_u64(keys, key_bits, prefix_bits, out, p.bucket_end,
                       counts, executor, &p.stats);
  for (std::size_t b = 0; b + 1 < p.bucket_end.size(); ++b) {
    std::sort(out.begin() + p.bucket_end[b], out.begin() + p.bucket_end[b + 1]);
  }
  p.sorted_buckets = std::move(out);
  return p;
}

TEST(ParallelBuild, PrefixPartitionIdenticalAcrossShapesAndWorkers) {
  rng::SplitMix64 rng_gen(0x9a12a11e1ULL);
  const unsigned key_bit_choices[] = {9, 13, 16, 32, 48, 64};
  const std::size_t sizes[] = {16384, 20000, 70000};
  const unsigned worker_counts[] = {1, 2, 3, 8, 64};

  for (int shape = 0; shape < 5; ++shape) {
    for (const std::size_t n : sizes) {
      const unsigned key_bits =
          key_bit_choices[rng_gen() % std::size(key_bit_choices)];
      const unsigned prefix_bits =
          1 + static_cast<unsigned>(rng_gen() % std::min(key_bits, 16u));
      const auto keys = adversarial_keys(shape, n, key_bits, rng_gen);

      // A sorted array is the one-chunk partition with sorted buckets.
      std::vector<std::uint64_t> sorted = keys;
      std::vector<std::uint64_t> scratch;
      radix_sort_u64(sorted, scratch, key_bits);
      const Partition serial = partition(keys, key_bits, prefix_bits, nullptr);
      ASSERT_EQ(serial.sorted_buckets, sorted)
          << "shape=" << shape << " key_bits=" << key_bits
          << " prefix_bits=" << prefix_bits;
      ASSERT_EQ(serial.bucket_end.size(), (std::size_t{1} << prefix_bits) + 1);
      EXPECT_EQ(serial.bucket_end.front(), 0u);
      EXPECT_EQ(serial.bucket_end.back(), n);
      EXPECT_EQ(serial.stats.workers, 1u);

      for (const unsigned workers : worker_counts) {
        SCOPED_TRACE(testing::Message()
                     << "shape=" << shape << " n=" << n << " key_bits="
                     << key_bits << " prefix_bits=" << prefix_bits
                     << " workers=" << workers);
        InlineParallelFor executor(workers);
        const Partition got = partition(keys, key_bits, prefix_bits, &executor);
        ASSERT_EQ(got.bucket_end, serial.bucket_end);
        ASSERT_EQ(got.sorted_buckets, serial.sorted_buckets);
        EXPECT_EQ(got.stats.workers, workers);
        EXPECT_EQ(got.stats.buckets_used, serial.stats.buckets_used);
        EXPECT_EQ(got.stats.max_bucket, serial.stats.max_bucket);
        if (shape == 1) EXPECT_EQ(got.stats.buckets_used, 1u);
      }
    }
  }
}

TEST(ParallelBuild, SmallInputsRunAsOneChunk) {
  rng::SplitMix64 gen(0xfa11bacULL);
  InlineParallelFor executor(8);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}, std::size_t{16383}}) {
    std::vector<std::uint64_t> keys(n);
    for (auto& v : keys) v = gen() & 0xffffffffULL;
    const Partition got = partition(keys, 32, 12, &executor);
    EXPECT_EQ(got.stats.workers, 1u) << "n=" << n << " should run as one";
    EXPECT_EQ(got.bucket_end, partition(keys, 32, 12, nullptr).bucket_end);
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(got.sorted_buckets, sorted) << "n=" << n;
  }
}

TEST(ParallelBuild, NullExecutorRunsOneChunk) {
  rng::SplitMix64 gen(0x0ULL);
  std::vector<std::uint64_t> keys(30000);
  for (auto& v : keys) v = gen();
  const Partition got = partition(keys, 64, 16, nullptr);
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(got.sorted_buckets, sorted);
  EXPECT_EQ(got.stats.workers, 1u);
}

TEST(ParallelBuild, PrefixPartitionRejectsBadShapes) {
  const std::vector<std::uint64_t> keys = {1, 2, 3};
  std::vector<std::uint64_t> out;
  std::vector<std::uint32_t> bucket_end, counts;
  EXPECT_THROW(prefix_partition_u64(keys, 32, 0, out, bucket_end, counts,
                                    nullptr),
               PreconditionError);
  EXPECT_THROW(prefix_partition_u64(keys, 32, 17, out, bucket_end, counts,
                                    nullptr),
               PreconditionError);
  EXPECT_THROW(prefix_partition_u64(keys, 7, 8, out, bucket_end, counts,
                                    nullptr),
               PreconditionError);
}

struct Reference {
  std::uint64_t path;
  unsigned depth = 0;                // max lcp(code, path)
  std::vector<std::uint64_t> count;  // responders per len
};

// Brute force over sorted codes: the max lcp, and each prefix's population
// as the distance between two lower bounds.
Reference reference_for(const std::vector<std::uint64_t>& codes,
                        unsigned height, std::uint64_t path) {
  Reference ref{path, 0, std::vector<std::uint64_t>(height + 1)};
  for (const std::uint64_t code : codes) {
    const std::uint64_t x = code ^ path;
    ref.depth = std::max(
        ref.depth, x == 0 ? height
                          : static_cast<unsigned>(std::countl_zero(x)) -
                                (64 - height));
  }
  for (unsigned len = 0; len <= height; ++len) {
    const unsigned shift = height - len;
    const std::uint64_t lo = len == 0 ? 0 : (path >> shift) << shift;
    const std::uint64_t hi = len == 0 ? 0 : lo + (std::uint64_t{1} << shift);
    const auto first = std::lower_bound(codes.begin(), codes.end(), lo);
    const auto last =
        hi == 0 ? codes.end() : std::lower_bound(first, codes.end(), hi);
    ref.count[len] = static_cast<std::uint64_t>(last - first);
  }
  return ref;
}

// The channel's index answers every query the way a sorted reference does:
// the responder count of query_prefix (read off the ledger's tag_bits) at
// every len in 0..H, so the deepest busy probe is the brute-force max lcp.
// Covers widths from 1 to 64, n from 0 to 5e4, duplicate codes (H <= 2),
// the extreme codes 0 and 2^H - 1, a path equal to a code (d = H), the
// all-ones prefix at H = 64 (where the sorted reference's upper bound wraps
// to 0), and build workers 1/2/8 (5e4 codes engage the chunked partition).
// The per-round depth cache must never go stale: one channel opens the
// paths back to back, probes every other round deepest-first, and is
// rebuilt under a new seed between two rounds on the same path.
TEST(PrefixIndex, AnswersMatchSortedReference) {
  constexpr std::uint64_t kRekeySeed = 0x2e5eedULL;
  const unsigned heights[] = {1, 2, 7, 13, 16, 17, 32, 64};
  const std::size_t sizes[] = {0, 1, 2, 3, 2000, 50000};
  const std::uint64_t seed = 0x1dea5eedULL;

  for (const unsigned height : heights) {
    const std::uint64_t mask = height == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << height) - 1;
    const auto code_of = [&](TagId id) {
      return rng::uniform_code(rng::HashKind::kMix64, seed, id, height)
          .value();
    };
    // Ids whose codes are the extremes 0 and 2^H - 1, where a search finds
    // them quickly.
    std::vector<TagId> extremes;
    if (height <= 17) {
      for (const std::uint64_t want : {std::uint64_t{0}, mask}) {
        std::uint64_t raw = 1;
        while (code_of(TagId{raw}) != want) ++raw;
        extremes.push_back(TagId{raw});
      }
    }

    for (const std::size_t n : sizes) {
      std::vector<TagId> ids = make_ids(n, 0x5157ULL + height + n);
      if (n >= 2000) std::copy(extremes.begin(), extremes.end(), ids.begin());
      std::vector<std::uint64_t> codes;
      for (const TagId id : ids) codes.push_back(code_of(id));
      std::sort(codes.begin(), codes.end());
      if (n >= 2000 && height <= 17) {
        ASSERT_EQ(codes.front(), 0u);
        ASSERT_EQ(codes.back(), mask);
      }

      rng::SplitMix64 gen(height * 1000 + n);
      std::vector<std::uint64_t> paths = {0, mask, gen() & mask,
                                          gen() & mask};
      if (n > 0) {
        paths.push_back(codes[n / 2]);
        paths.push_back(codes.back());
        paths.push_back(codes.front() ^ 1);
      }

      std::vector<Reference> refs;
      for (const std::uint64_t path : paths) {
        refs.push_back(reference_for(codes, height, path));
        if (n > 0 && path == codes[n / 2]) {
          ASSERT_EQ(refs.back().depth, height);
        }
      }
      // The same ids under a second manufacturing seed, for the rebuild.
      std::vector<std::uint64_t> rekeyed;
      for (const TagId id : ids) {
        rekeyed.push_back(rng::uniform_code(rng::HashKind::kMix64, kRekeySeed,
                                            id, height)
                              .value());
      }
      std::sort(rekeyed.begin(), rekeyed.end());
      const Reference rekeyed_ref =
          reference_for(rekeyed, height, refs.back().path);

      for (const unsigned workers : {1u, 2u, 8u}) {
        BuildParallelismGuard guard(workers);
        chan::SortedPetChannelConfig config;
        config.tree_height = height;
        config.manufacturing_seed = seed;
        chan::SortedPetChannel channel(ids, config);
        const auto check_round = [&](const Reference& ref, bool descending) {
          SCOPED_TRACE(testing::Message()
                       << "H=" << height << " n=" << n << " path="
                       << ref.path << " workers=" << workers
                       << (descending ? " descending" : " ascending"));
          channel.begin_round(chan::RoundConfig{BitCode(ref.path, height)});
          unsigned depth = 0;  // deepest busy probe
          for (unsigned i = 0; i <= height; ++i) {
            const unsigned len = descending ? height - i : i;
            const std::uint64_t before = channel.ledger().tag_bits;
            const bool busy = channel.query_prefix(len);
            EXPECT_EQ(busy, ref.count[len] > 0) << "len=" << len;
            EXPECT_EQ(channel.ledger().tag_bits - before, ref.count[len])
                << "len=" << len;
            if (busy) depth = std::max(depth, len);
          }
          EXPECT_EQ(depth, ref.depth);
        };
        for (std::size_t r = 0; r < refs.size(); ++r) {
          check_round(refs[r], r % 2 == 1);
        }
        channel.rebuild(kRekeySeed);
        EXPECT_THROW(channel.query_prefix(0), PreconditionError);
        check_round(rekeyed_ref, false);
        channel.rebuild(seed);
        check_round(refs.back(), true);
      }
    }
  }
}

// Channel-level property: rebuild(seed) through the registered pool
// executor is byte-identical to the serial build at threads 1/2/8 — same
// estimates, same ledger bits, including H = 64 (the wrap heights
// fastpath_test's generators cover) and a population large enough to
// engage the partition.
TEST(ParallelBuild, RebuildByteIdenticalAtAnyThreadCount) {
  const unsigned heights[] = {32, 64};
  const std::size_t n = 20000;
  core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});

  for (const unsigned height : heights) {
    const auto ids = make_ids(n, 0xc0ffeeULL + height);
    chan::SortedPetChannelConfig chan_config;
    chan_config.tree_height = height;
    chan_config.manufacturing_seed = 0xaaaULL;
    core::PetConfig pet_config;
    pet_config.tree_height = height;
    const core::PetEstimator h_estimator(pet_config, {0.05, 0.01});

    core::EstimateResult serial_first, serial_second;
    {
      BuildParallelismGuard guard(1);
      chan::SortedPetChannel channel(ids, chan_config);
      serial_first = h_estimator.estimate_with_rounds(channel, 8, 42);
      channel.rebuild(0xbbbULL);
      channel.reset_ledger();
      serial_second = h_estimator.estimate_with_rounds(channel, 8, 43);
    }

    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "H=" << height << " threads=" << threads);
      BuildParallelismGuard guard(threads);
      ASSERT_NE(build_parallel_for(), nullptr);
      chan::SortedPetChannel channel(ids, chan_config);
      const auto first = h_estimator.estimate_with_rounds(channel, 8, 42);
      channel.rebuild(0xbbbULL);
      channel.reset_ledger();
      const auto second = h_estimator.estimate_with_rounds(channel, 8, 43);
      expect_result_identical(first, serial_first);
      expect_result_identical(second, serial_second);
    }
  }
}

// Nested-context safety: a build issued from inside a pool task must see a
// single-worker executor (serial build), so per-trial rebuilds inside a
// parallel sweep never queue behind their own sweep.
TEST(ParallelBuild, BuildsInsidePoolTasksStaySerial) {
  BuildParallelismGuard guard(8);
  ASSERT_EQ(runtime::build_parallelism(), 8u);
  runtime::ThreadPool pool(2);
  auto future = pool.submit([] {
    EXPECT_TRUE(runtime::ThreadPool::on_worker_thread());
    EXPECT_EQ(runtime::build_parallelism(), 1u);
    // And a real partition from this context still lands the right answer.
    rng::SplitMix64 gen(0x17ea1ULL);
    std::vector<std::uint64_t> keys(20000);
    for (auto& v : keys) v = gen() & 0xffffffffULL;
    const Partition got = partition(keys, 32, 12, build_parallel_for());
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(got.sorted_buckets, sorted);
    EXPECT_EQ(got.stats.workers, 1u);
  });
  future.get();
  EXPECT_FALSE(runtime::ThreadPool::on_worker_thread());
}

// The registered pool executor agrees with the inline reference executor
// on the exact same key set — real cross-thread scatter produces the same
// bytes, order inside each bucket included, as the deterministic
// single-thread walk of the same chunks.
TEST(ParallelBuild, PoolExecutorMatchesInlineExecutor) {
  rng::SplitMix64 gen(0x9001ULL);
  std::vector<std::uint64_t> keys(70000);
  for (auto& k : keys) k = gen();

  InlineParallelFor inline_exec(4);
  std::vector<std::uint64_t> want;
  std::vector<std::uint32_t> want_end, want_counts;
  prefix_partition_u64(keys, 64, 14, want, want_end, want_counts,
                       &inline_exec);

  BuildParallelismGuard guard(4);
  ASSERT_NE(build_parallel_for(), nullptr);
  std::vector<std::uint64_t> got;
  std::vector<std::uint32_t> got_end, got_counts;
  PrefixPartitionStats stats;
  prefix_partition_u64(keys, 64, 14, got, got_end, got_counts,
                       build_parallel_for(), &stats);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_end, want_end);
  EXPECT_EQ(stats.workers, 4u);
}

}  // namespace
