// Fast-round pipeline conformance: the prefix-bucket index with its
// per-round depth cache, batched hashing, radix sort, rebuild(), and the
// per-thread channel arenas must be *byte-identical* to the reference paths
// — same EstimateResult, same SlotLedger down to the floating-point airtime
// sum — for every (n, H, seed) including the degenerate populations n = 0
// and n = 1 and the H = 64 prefix-range wrap (docs/performance.md).  The
// reference is ExactChannel: element-wise hashing, no index, a fresh
// O(n) membership scan per probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "channel/arena.hpp"
#include "channel/exact_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/bitcode.hpp"
#include "common/radix.hpp"
#include "core/estimator.hpp"
#include "core/robust_estimator.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "runtime/trial_runner.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

// Bitwise double comparison: "byte-identical" includes NaN payloads and
// signed zeros, which EXPECT_DOUBLE_EQ would blur.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_ledger_identical(const sim::SlotLedger& got,
                             const sim::SlotLedger& want) {
  EXPECT_EQ(got.idle_slots, want.idle_slots);
  EXPECT_EQ(got.singleton_slots, want.singleton_slots);
  EXPECT_EQ(got.collision_slots, want.collision_slots);
  EXPECT_EQ(got.reader_bits, want.reader_bits);
  EXPECT_EQ(got.tag_bits, want.tag_bits);
  EXPECT_EQ(bits(got.airtime_us), bits(want.airtime_us));
  EXPECT_EQ(got.retry_slots, want.retry_slots);
  EXPECT_EQ(got.erased_replies, want.erased_replies);
  EXPECT_EQ(got.noise_busy_slots, want.noise_busy_slots);
  EXPECT_EQ(got.outage_slots, want.outage_slots);
}

void expect_result_identical(const core::EstimateResult& got,
                             const core::EstimateResult& want) {
  EXPECT_EQ(bits(got.n_hat), bits(want.n_hat));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(bits(got.mean_depth), bits(want.mean_depth));
  EXPECT_EQ(got.depths, want.depths);
  expect_ledger_identical(got.ledger, want.ledger);
}

std::vector<TagId> make_ids(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

constexpr core::SearchMode kModes[] = {core::SearchMode::kLinear,
                                       core::SearchMode::kBinaryPaper,
                                       core::SearchMode::kBinaryStrict};

// ---------------------------------------------------------------------------
// End-to-end: SortedPetChannel rounds vs the ExactChannel reference back
// end.

TEST(FastPath, MatchesExactChannelAcrossRandomCases) {
  rng::SplitMix64 gen(0xfa57ull);
  const std::size_t sizes[] = {0, 1, 2, 3, 17, 100, 777, 5000};
  const unsigned heights[] = {3, 8, 32, 63, 64};

  for (int c = 0; c < 40; ++c) {
    const std::size_t n = sizes[gen() % std::size(sizes)];
    const unsigned height = heights[gen() % std::size(heights)];
    const core::SearchMode mode = kModes[c % 3];
    const std::uint64_t manufacturing_seed = gen();
    const std::uint64_t estimate_seed = gen();
    const std::uint64_t rounds = 1 + gen() % 12;
    SCOPED_TRACE(testing::Message()
                 << "case " << c << ": n=" << n << " H=" << height
                 << " mode=" << to_string(mode) << " mseed="
                 << manufacturing_seed << " eseed=" << estimate_seed
                 << " m=" << rounds);

    core::PetConfig config;
    config.tree_height = height;
    config.search = mode;
    const core::PetEstimator estimator(config, {0.05, 0.01});
    const auto ids = make_ids(n, 0xdecafULL + static_cast<std::uint64_t>(c));

    core::EstimateResult reference;
    {
      chan::ExactChannelConfig exact_config;
      exact_config.tree_height = height;
      exact_config.manufacturing_seed = manufacturing_seed;
      chan::ExactChannel channel(ids, exact_config);
      reference =
          estimator.estimate_with_rounds(channel, rounds, estimate_seed);
    }
    core::EstimateResult fast;
    {
      chan::SortedPetChannelConfig sorted_config;
      sorted_config.tree_height = height;
      sorted_config.manufacturing_seed = manufacturing_seed;
      chan::SortedPetChannel channel(ids, sorted_config);
      fast = estimator.estimate_with_rounds(channel, rounds, estimate_seed);
    }
    expect_result_identical(fast, reference);
  }
}

// ---------------------------------------------------------------------------
// Robust estimator: the vote's re-reads, overturns, budget exhaustion and
// retry_slots charges over the index must match the ExactChannel reference.

TEST(FastPath, RobustVotingParityIncludingRetryAccounting) {
  rng::SplitMix64 gen(0x0b57ull);
  struct Case {
    std::size_t n;
    unsigned height;
    std::uint64_t retry_budget;
  };
  const Case cases[] = {
      {0, 32, UINT64_MAX},  {1, 32, UINT64_MAX}, {500, 32, UINT64_MAX},
      {500, 32, 5},         {2000, 64, UINT64_MAX}, {2000, 64, 3},
      {100, 8, UINT64_MAX},
  };

  for (const Case& test_case : cases) {
    const std::uint64_t manufacturing_seed = gen();
    const std::uint64_t estimate_seed = gen();
    const std::uint64_t rounds = 1 + gen() % 10;
    SCOPED_TRACE(testing::Message()
                 << "n=" << test_case.n << " H=" << test_case.height
                 << " budget=" << test_case.retry_budget);

    core::RobustPetConfig config;
    config.base.tree_height = test_case.height;
    config.vote_reads = 3;
    config.vote_quorum = 2;
    config.retry_budget_slots = test_case.retry_budget;
    const core::RobustPetEstimator estimator(config, {0.05, 0.01});
    const auto ids = make_ids(test_case.n, 0x0b57e11ULL);

    core::RobustEstimateResult slow;
    {
      chan::ExactChannelConfig exact_config;
      exact_config.tree_height = test_case.height;
      exact_config.manufacturing_seed = manufacturing_seed;
      chan::ExactChannel channel(ids, exact_config);
      slow = estimator.estimate_with_rounds(channel, rounds, estimate_seed);
    }
    core::RobustEstimateResult fast;
    {
      chan::SortedPetChannelConfig sorted_config;
      sorted_config.tree_height = test_case.height;
      sorted_config.manufacturing_seed = manufacturing_seed;
      chan::SortedPetChannel channel(ids, sorted_config);
      fast = estimator.estimate_with_rounds(channel, rounds, estimate_seed);
    }

    expect_result_identical(fast.base, slow.base);
    EXPECT_EQ(fast.reread_slots, slow.reread_slots);
    EXPECT_EQ(fast.overturned_probes, slow.overturned_probes);
    EXPECT_EQ(fast.retry_budget_exhausted, slow.retry_budget_exhausted);
    EXPECT_EQ(bits(fast.interval.lo), bits(slow.interval.lo));
    EXPECT_EQ(bits(fast.interval.hi), bits(slow.interval.hi));
    EXPECT_EQ(bits(fast.diagnostic.ks_distance),
              bits(slow.diagnostic.ks_distance));
    EXPECT_EQ(fast.diagnostic.health, slow.diagnostic.health);
  }
}

// ---------------------------------------------------------------------------
// Sorting and hashing engines.

TEST(FastPath, RadixSortMatchesStdSortFuzz) {
  rng::SplitMix64 gen(0x4ad1eULL);
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> scratch;

  for (int c = 0; c < 200; ++c) {
    const std::size_t n = static_cast<std::size_t>(gen() % 4097);
    const unsigned key_bits = 1 + static_cast<unsigned>(gen() % 64);
    const std::uint64_t mask = key_bits == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << key_bits) - 1;
    values.resize(n);
    switch (c % 5) {
      case 0:  // uniform over the key range
        for (auto& v : values) v = gen() & mask;
        break;
      case 1:  // heavy duplicates
        for (auto& v : values) v = gen() % 7;
        break;
      case 2:  // already sorted
        for (std::size_t i = 0; i < n; ++i) values[i] = i & mask;
        break;
      case 3:  // reverse sorted
        for (std::size_t i = 0; i < n; ++i) values[i] = (n - i) & mask;
        break;
      default:  // constant
        for (auto& v : values) v = 0x5eedULL & mask;
        break;
    }
    std::vector<std::uint64_t> want = values;
    std::sort(want.begin(), want.end());
    radix_sort_u64(values, scratch, key_bits);
    ASSERT_EQ(values, want) << "case " << c << " n=" << n
                            << " key_bits=" << key_bits;
  }
}

TEST(FastPath, UniformCodeBatchMatchesElementwiseHash) {
  const rng::HashKind kinds[] = {rng::HashKind::kMix64, rng::HashKind::kMd5,
                                 rng::HashKind::kSha1};
  const unsigned widths[] = {1, 13, 32, 64};
  const auto ids = make_ids(257, 0xba7c4ULL);
  std::vector<std::uint64_t> batch;

  rng::SplitMix64 gen(0xc0deull);
  for (const rng::HashKind kind : kinds) {
    for (const unsigned width : widths) {
      const std::uint64_t seed = gen();
      rng::uniform_code_batch(kind, seed, ids, width, batch);
      ASSERT_EQ(batch.size(), ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(batch[i],
                  rng::uniform_code(kind, seed, ids[i], width).value())
            << to_string(kind) << " width=" << width << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reuse machinery: rebuild() and the per-thread arenas.

TEST(FastPath, RebuildEquivalentToFreshConstruction) {
  const auto ids = make_ids(1500, 0x5eedULL);
  core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});

  chan::SortedPetChannelConfig first;
  first.manufacturing_seed = 111;
  chan::SortedPetChannelConfig second;
  second.manufacturing_seed = 222;

  chan::SortedPetChannel reused(ids, first);
  const auto before = estimator.estimate_with_rounds(reused, 8, 42);
  reused.rebuild(222);
  reused.reset_ledger();
  const auto after = estimator.estimate_with_rounds(reused, 8, 43);

  chan::SortedPetChannel fresh_first(ids, first);
  expect_result_identical(
      before, estimator.estimate_with_rounds(fresh_first, 8, 42));
  chan::SortedPetChannel fresh_second(ids, second);
  expect_result_identical(
      after, estimator.estimate_with_rounds(fresh_second, 8, 43));
  EXPECT_EQ(reused.tag_count(), ids.size());
}

TEST(FastPath, SortedChannelArenaMatchesFreshChannels) {
  const auto ids = make_ids(800, 0xa4e4aULL);
  core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    chan::SortedPetChannelConfig channel_config;
    channel_config.manufacturing_seed = 1000 + trial;
    chan::SortedPetChannel& arena =
        chan::arena_sorted_pet_channel(ids, channel_config);
    const auto got = estimator.estimate_with_rounds(arena, 6, 77 + trial);
    arena.flush_obs();

    chan::SortedPetChannel fresh(ids, channel_config);
    const auto want = estimator.estimate_with_rounds(fresh, 6, 77 + trial);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_result_identical(got, want);
  }
}

TEST(FastPath, SampledChannelArenaMatchesFreshChannels) {
  core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const std::uint64_t n = 100 + 37 * trial;
    const std::uint64_t chan_seed = 500 + trial;
    chan::SampledChannel& arena = chan::arena_sampled_channel(n, chan_seed);
    const auto got = estimator.estimate_with_rounds(arena, 6, 13 + trial);

    chan::SampledChannel fresh(n, chan_seed);
    const auto want = estimator.estimate_with_rounds(fresh, 6, 13 + trial);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_result_identical(got, want);
  }
}

// ---------------------------------------------------------------------------
// The production sweep vs the reference back end, trial for trial
// (scripts/check_repro.sh claim 6).

// Every (m, run) trial of `table3_pet_slots --quick` at its default seed,
// built as bench::run_pet builds it: an arena SortedPetChannel.  Each must
// equal a fresh ExactChannel bit for bit, ledger and airtime sum included.
// The reference differs from production in every layer: element-wise
// hashing, no index, a fresh channel per trial, a membership scan per
// probe.  Trials are spread over a trial runner, as the bench spreads them.
TEST(FastPath, Table3QuickGridMatchesExactChannel) {
  constexpr std::uint64_t kTags = 50000;  // bench/table3_pet_slots.cpp
  constexpr std::uint64_t kRuns = 30;     // --quick
  constexpr std::uint64_t kSeed = 1;      // harness default --seed
  const std::uint64_t grid[] = {8, 16, 32, 64, 128, 256, 512, 1024};
  const auto ids = make_ids(kTags, 0xdecafULL);  // bench::run_pet's
  const core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});
  runtime::TrialRunner runner;
  const auto failures = [] {
    return testing::UnitTest::GetInstance()
        ->current_test_info()
        ->result()
        ->total_part_count();
  };

  std::uint64_t identical = 0;
  for (const std::uint64_t m : grid) {
    const std::uint64_t seed = kSeed + m;
    runner.run<std::pair<core::EstimateResult, core::EstimateResult>>(
        kRuns,
        [&](std::uint64_t run) {
          chan::SortedPetChannelConfig sorted_config;
          sorted_config.tree_height = config.tree_height;
          sorted_config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
          const std::uint64_t estimate_seed =
              rng::derive_seed(seed, 2 * run + 1);
          chan::SortedPetChannel& production =
              chan::arena_sorted_pet_channel(ids, sorted_config);
          auto got = estimator.estimate_with_rounds(production, m,
                                                    estimate_seed);
          production.flush_obs();

          chan::ExactChannelConfig exact_config;
          exact_config.tree_height = config.tree_height;
          exact_config.manufacturing_seed = sorted_config.manufacturing_seed;
          chan::ExactChannel reference(ids, exact_config);
          return std::pair{std::move(got),
                           estimator.estimate_with_rounds(reference, m,
                                                          estimate_seed)};
        },
        [&](std::uint64_t run,
            std::pair<core::EstimateResult, core::EstimateResult>&& trial) {
          SCOPED_TRACE(testing::Message() << "m=" << m << " run=" << run);
          const int before = failures();
          expect_result_identical(trial.first, trial.second);
          if (failures() == before) ++identical;
        });
  }
  std::printf("table3 --quick grid: %llu/%llu trials identical\n",
              static_cast<unsigned long long>(identical),
              static_cast<unsigned long long>(std::size(grid) * kRuns));
  EXPECT_EQ(identical, std::size(grid) * kRuns);
}

}  // namespace
