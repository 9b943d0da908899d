// Parallel MSB radix partition conformance (src/common/radix.cpp,
// src/runtime/parallel_exec.cpp): one build's key space split across
// workers must sort to the byte-identical array the serial engine produces
// — for any worker count, any chunk geometry, and the adversarial key
// shapes that stress the partition (all-equal keys, one hot MSB bucket,
// pre-sorted, reverse-sorted).  At the channel level, rebuild(seed) through
// a registered build executor must leave every estimate bit-identical to
// the serial path, including the H = 64 wrap cases fastpath_test pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "common/parallel.hpp"
#include "common/radix.hpp"
#include "core/estimator.hpp"
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

// Adversarial key generators.  Sizes sit above the serial-fallback
// threshold so the partition actually engages.
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
    case 2: {  // one hot MSB bucket: 99% share the top digit, 1% scattered
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

TEST(ParallelBuild, PartitionMatchesSerialSortAcrossShapesAndWorkers) {
  rng::SplitMix64 rng_gen(0x9a12a11e1ULL);
  const unsigned key_bit_choices[] = {9, 13, 16, 32, 48, 64};
  const std::size_t sizes[] = {16384, 20000, 70000};
  const unsigned worker_counts[] = {2, 3, 8, 64};

  for (int shape = 0; shape < 5; ++shape) {
    for (const std::size_t n : sizes) {
      const unsigned key_bits =
          key_bit_choices[rng_gen() % std::size(key_bit_choices)];
      const auto keys = adversarial_keys(shape, n, key_bits, rng_gen);

      std::vector<std::uint64_t> want = keys;
      std::vector<std::uint64_t> scratch;
      radix_sort_u64(want, scratch, key_bits);

      for (const unsigned workers : worker_counts) {
        InlineParallelFor executor(workers);
        std::vector<std::uint64_t> values = keys;
        std::vector<std::uint64_t> parallel_scratch;
        RadixPartitionStats stats;
        radix_sort_u64_parallel(values, parallel_scratch, key_bits,
                                &executor, &stats);
        ASSERT_EQ(values, want) << "shape=" << shape << " n=" << n
                                << " key_bits=" << key_bits
                                << " workers=" << workers;
        EXPECT_EQ(stats.workers, workers);
        EXPECT_GE(stats.buckets_used, 1u);
        EXPECT_LE(stats.max_bucket, n);
        if (shape == 1) EXPECT_EQ(stats.buckets_used, 1u);
      }
    }
  }
}

TEST(ParallelBuild, SmallInputsAndNarrowKeysFallBackToSerial) {
  rng::SplitMix64 gen(0xfa11bacULL);
  InlineParallelFor executor(8);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}, std::size_t{16383}}) {
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = gen() & 0xffffffffULL;
    std::vector<std::uint64_t> want = values;
    std::vector<std::uint64_t> scratch, want_scratch;
    radix_sort_u64(want, want_scratch, 32);
    RadixPartitionStats stats;
    radix_sort_u64_parallel(values, scratch, 32, &executor, &stats);
    ASSERT_EQ(values, want) << "n=" << n;
    EXPECT_EQ(stats.workers, 1u) << "n=" << n << " should fall back";
  }
  // key_bits <= 8: nothing below the MSB digit to sort in parallel.
  std::vector<std::uint64_t> values(50000);
  for (auto& v : values) v = gen() & 0xff;
  std::vector<std::uint64_t> want = values;
  std::vector<std::uint64_t> scratch, want_scratch;
  radix_sort_u64(want, want_scratch, 8);
  RadixPartitionStats stats;
  radix_sort_u64_parallel(values, scratch, 8, &executor, &stats);
  ASSERT_EQ(values, want);
  EXPECT_EQ(stats.workers, 1u);
}

TEST(ParallelBuild, NullExecutorIsTheSerialSort) {
  rng::SplitMix64 gen(0x0ULL);
  std::vector<std::uint64_t> values(30000);
  for (auto& v : values) v = gen();
  std::vector<std::uint64_t> want = values;
  std::vector<std::uint64_t> scratch, want_scratch;
  radix_sort_u64(want, want_scratch, 64);
  RadixPartitionStats stats;
  radix_sort_u64_parallel(values, scratch, 64, nullptr, &stats);
  EXPECT_EQ(values, want);
  EXPECT_EQ(stats.workers, 1u);
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
    // And a real sort from this context still lands the right answer.
    rng::SplitMix64 gen(0x17ea1ULL);
    std::vector<std::uint64_t> values(20000);
    for (auto& v : values) v = gen() & 0xffffffffULL;
    std::vector<std::uint64_t> want = values;
    std::vector<std::uint64_t> scratch, want_scratch;
    radix_sort_u64(want, want_scratch, 32);
    RadixPartitionStats stats;
    radix_sort_u64_parallel(values, scratch, 32, build_parallel_for(),
                            &stats);
    EXPECT_EQ(values, want);
    EXPECT_EQ(stats.workers, 1u);
  });
  future.get();
  EXPECT_FALSE(runtime::ThreadPool::on_worker_thread());
}

// The registered pool executor agrees with the inline reference executor
// on the exact same key set — i.e. real cross-thread scatter produces the
// same bytes as the deterministic single-thread walk of the same chunks.
TEST(ParallelBuild, PoolExecutorMatchesInlineExecutor) {
  rng::SplitMix64 gen(0x9001ULL);
  std::vector<std::uint64_t> keys(70000);
  for (auto& k : keys) k = gen();

  InlineParallelFor inline_exec(4);
  std::vector<std::uint64_t> want = keys;
  std::vector<std::uint64_t> want_scratch;
  radix_sort_u64_parallel(want, want_scratch, 64, &inline_exec);

  BuildParallelismGuard guard(4);
  ASSERT_NE(build_parallel_for(), nullptr);
  std::vector<std::uint64_t> values = keys;
  std::vector<std::uint64_t> scratch;
  RadixPartitionStats stats;
  radix_sort_u64_parallel(values, scratch, 64, build_parallel_for(), &stats);
  EXPECT_EQ(values, want);
  EXPECT_EQ(stats.workers, 4u);
}

}  // namespace
