// Edge-case and failure-injection suite: tiny/degenerate populations,
// extreme parameters, impairment monotonicity, determinism guarantees, and
// the failure modes the design intentionally surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "channel/device_channel.hpp"
#include "channel/exact_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/ensure.hpp"
#include "core/confidence.hpp"
#include "core/constants.hpp"
#include "core/estimator.hpp"
#include "core/theory.hpp"
#include "protocols/ezb.hpp"
#include "protocols/fneb.hpp"
#include "protocols/identification.hpp"
#include "protocols/lof.hpp"
#include "stats/running_stat.hpp"
#include "tags/population.hpp"

namespace pet {
namespace {

std::vector<TagId> make_tags(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

// --------------------------------------------------------------- determinism

TEST(Determinism, EstimatesAreReproducibleAcrossChannelBackends) {
  const auto tags = make_tags(700, 1);
  const core::PetEstimator estimator(core::PetConfig{}, {0.2, 0.2});
  chan::ExactChannel exact1(tags);
  chan::ExactChannel exact2(tags);
  chan::SortedPetChannel sorted(tags);
  chan::DeviceChannel device(tags, chan::DeviceKind::kPet);

  const auto r1 = estimator.estimate_with_rounds(exact1, 50, 9);
  const auto r2 = estimator.estimate_with_rounds(exact2, 50, 9);
  const auto r3 = estimator.estimate_with_rounds(sorted, 50, 9);
  const auto r4 = estimator.estimate_with_rounds(device, 50, 9);
  EXPECT_EQ(r1.depths, r2.depths) << "same backend, same seed";
  EXPECT_EQ(r1.depths, r3.depths) << "sorted is bit-identical";
  EXPECT_EQ(r1.depths, r4.depths) << "device is bit-identical";
  EXPECT_DOUBLE_EQ(r1.n_hat, r4.n_hat);
}

TEST(Determinism, DifferentSeedsGiveDifferentRounds) {
  const auto tags = make_tags(700, 1);
  chan::SortedPetChannel channel(tags);
  const core::PetEstimator estimator(core::PetConfig{}, {0.2, 0.2});
  const auto a = estimator.estimate_with_rounds(channel, 50, 1);
  const auto b = estimator.estimate_with_rounds(channel, 50, 2);
  EXPECT_NE(a.depths, b.depths);
}

// ----------------------------------------------------------- tiny population

TEST(TinyPopulations, StrictModeHandlesEverySmallN) {
  core::PetConfig config;
  config.search = core::SearchMode::kBinaryStrict;
  const core::PetEstimator estimator(config, {0.3, 0.3});
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 8u}) {
    chan::ExactChannel channel(make_tags(n, 10 + n));
    const auto result = estimator.estimate_with_rounds(channel, 300, n);
    if (n == 0) {
      EXPECT_DOUBLE_EQ(result.n_hat, 0.0);
    } else {
      EXPECT_GT(result.n_hat, 0.15 * static_cast<double>(n)) << "n=" << n;
      EXPECT_LT(result.n_hat, 6.0 * static_cast<double>(n)) << "n=" << n;
    }
  }
}

TEST(TinyPopulations, SampledChannelAgreesForNOne) {
  // n = 1: P(d >= k) = 2^-k exactly, so E[d] = 1.  Strict search observes
  // d = 0 faithfully; the paper's 5-slot loop would floor it at 1 (that
  // documented quirk makes E[max(d,1)] = 1.5 — checked too).
  chan::SampledChannel strict_channel(1, 3);
  chan::SampledChannel paper_channel(1, 3);
  core::PetConfig strict;
  strict.search = core::SearchMode::kBinaryStrict;
  const core::PetEstimator strict_estimator(strict, {0.3, 0.3});
  const core::PetEstimator paper_estimator(core::PetConfig{}, {0.3, 0.3});
  stats::RunningStat strict_depths;
  stats::RunningStat paper_depths;
  for (int t = 0; t < 64; ++t) {
    for (const unsigned d :
         strict_estimator.estimate_with_rounds(strict_channel, 32,
                                               static_cast<std::uint64_t>(t))
             .depths) {
      strict_depths.add(d);
    }
    for (const unsigned d :
         paper_estimator.estimate_with_rounds(paper_channel, 32,
                                              static_cast<std::uint64_t>(t))
             .depths) {
      paper_depths.add(d);
    }
  }
  EXPECT_NEAR(strict_depths.mean(), 1.0, 0.15);
  EXPECT_NEAR(paper_depths.mean(), 1.5, 0.15);
}

TEST(TinyPopulations, ZeroPopulationConfidenceIntervalIsAPointAtZero) {
  // Every round certifies emptiness, so the estimate is exact and both
  // interval constructions must degenerate to [0, 0] instead of throwing
  // on the empty depth vector.
  core::PetConfig config;
  config.search = core::SearchMode::kBinaryStrict;
  const core::PetEstimator estimator(config, {0.3, 0.3});
  chan::ExactChannel channel(make_tags(0, 31));
  const auto result = estimator.estimate_with_rounds(channel, 16, 32);
  ASSERT_TRUE(result.depths.empty());
  EXPECT_DOUBLE_EQ(result.n_hat, 0.0);
  for (const auto& interval :
       {core::confidence_interval(result, 0.05),
        core::empirical_confidence_interval(result, 0.05)}) {
    EXPECT_DOUBLE_EQ(interval.lo, 0.0);
    EXPECT_DOUBLE_EQ(interval.hi, 0.0);
    EXPECT_DOUBLE_EQ(interval.point, 0.0);
    EXPECT_TRUE(interval.contains(0.0));
    EXPECT_FALSE(interval.contains(1.0));
    EXPECT_DOUBLE_EQ(interval.relative_half_width(), 0.0);
  }
}

TEST(TinyPopulations, SingleTagConfidenceIntervalsAreFiniteAndOrdered) {
  core::PetConfig config;
  config.search = core::SearchMode::kBinaryStrict;
  const core::PetEstimator estimator(config, {0.3, 0.3});
  chan::ExactChannel channel(make_tags(1, 33));
  const auto result = estimator.estimate_with_rounds(channel, 128, 34);
  const auto interval = core::confidence_interval(result, 0.05);
  const auto empirical = core::empirical_confidence_interval(result, 0.05);
  EXPECT_GT(result.n_hat, 0.0);
  for (const auto& ci : {interval, empirical}) {
    EXPECT_TRUE(std::isfinite(ci.lo) && std::isfinite(ci.hi));
    EXPECT_LE(ci.lo, ci.point);
    EXPECT_LE(ci.point, ci.hi);
    EXPECT_GT(ci.hi, 0.0);
  }
  // At n = 1 the asymptotic law E[d] ~= log2(phi n) no longer holds
  // (E[d] = 1 exactly, so n̂ concentrates on 2/phi ~= 1.59, above n): the
  // interval must bracket the estimator's own limit, and its documented
  // small-n bias keeps true n below the interval.
  EXPECT_NEAR(result.n_hat, 2.0 / core::kPhi, 0.35);
  EXPECT_TRUE(interval.contains(2.0 / core::kPhi));
  EXPECT_GT(interval.lo, 1.0) << "small-n bias: asymptotic CI sits above n=1";
}

// ------------------------------------------------------- parameter extremes

TEST(ParameterExtremes, DepthSaturatesAtFullTreeHeight) {
  // n >> 2^H: nearly every round hits the deepest level d = H.  The
  // pipeline must saturate gracefully — depths clamped to H, the estimate
  // pinned near its 2^H / phi ceiling — and the exact law must agree.
  constexpr unsigned kHeight = 8;
  constexpr std::uint64_t kN = 1u << 20;
  const core::DepthDistribution law(kN, kHeight);
  EXPECT_GT(law.pmf(kHeight), 0.99);
  EXPECT_DOUBLE_EQ(law.cdf(kHeight), 1.0);
  EXPECT_NEAR(law.mean(), static_cast<double>(kHeight), 0.05);

  core::PetConfig config;
  config.tree_height = kHeight;
  config.search = core::SearchMode::kBinaryStrict;
  const core::PetEstimator estimator(config, {0.3, 0.3});
  chan::SampledChannelConfig channel_config;
  channel_config.tree_height = kHeight;
  chan::SampledChannel channel(kN, 35, channel_config);
  const auto result = estimator.estimate_with_rounds(channel, 200, 36);
  unsigned max_depth = 0;
  for (const unsigned d : result.depths) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, kHeight) << "saturated rounds must report d = H";
  const double ceiling = std::exp2(static_cast<double>(kHeight)) /
                         core::kPhi;
  EXPECT_LE(result.n_hat, ceiling * 1.0001);
  EXPECT_GT(result.n_hat, 0.9 * ceiling)
      << "with n >> 2^H nearly every round saturates";
}



TEST(ParameterExtremes, TreeHeight64EndToEnd) {
  core::PetConfig config;
  config.tree_height = 64;
  const auto tags = make_tags(4000, 11);
  chan::SortedPetChannelConfig channel_config;
  channel_config.tree_height = 64;
  chan::SortedPetChannel channel(tags, channel_config);
  const auto result = core::PetEstimator(config, {0.2, 0.2})
                          .estimate_with_rounds(channel, 800, 12);
  EXPECT_NEAR(result.n_hat, 4000.0, 0.15 * 4000.0);
}

TEST(ParameterExtremes, VeryLooseAndVeryTightContracts) {
  EXPECT_EQ(core::required_rounds({0.9, 0.9}), 1u);
  // eps = 0.5%, delta = 0.1%: hundreds of thousands of rounds — the planner
  // must not overflow or go negative.
  const auto m = core::required_rounds({0.005, 0.001});
  EXPECT_GT(m, 500000u);
  EXPECT_LT(m, 5000000u);
}

TEST(ParameterExtremes, FnebWithMinimalFrame) {
  proto::FnebConfig config;
  config.initial_frame_size = 64;
  config.min_frame_size = 64;
  config.adaptive = false;
  const proto::FnebEstimator estimator(config, {0.3, 0.3});
  chan::ExactChannel channel(make_tags(8, 13));
  const auto result = estimator.estimate_with_rounds(channel, 200, 14);
  EXPECT_GT(result.n_hat, 1.0);
  EXPECT_LT(result.n_hat, 64.0);
}

TEST(ParameterExtremes, EzbBeyondItsLadderSaturates) {
  // Population far beyond what p = 2^-(ladder-1) can thin: every frame
  // saturates and EZB reports its documented sentinel (f * 2^ladder).
  proto::EzbConfig config;
  config.persistence_ladder = 4;  // p down to 1/8 only
  config.frame_size = 64;
  const proto::EzbEstimator estimator(config, {0.3, 0.3});
  chan::SampledChannel channel(1000000, 15);
  const auto result = estimator.estimate(channel, 16);
  EXPECT_DOUBLE_EQ(result.n_hat, 64.0 * 16.0);
}

// ------------------------------------------------------- failure injection

TEST(FailureInjection, LossBiasIsMonotone) {
  const auto tags = make_tags(2000, 17);
  const core::PetEstimator estimator(core::PetConfig{}, {0.2, 0.2});
  double previous = 2000.0 * 1.5;
  for (const double loss : {0.0, 0.2, 0.5, 0.8}) {
    chan::DeviceChannelConfig config;
    config.impairments.reply_loss_prob = loss;
    chan::DeviceChannel channel(tags, chan::DeviceKind::kPet, config);
    const auto result = estimator.estimate_with_rounds(channel, 400, 18);
    EXPECT_LT(result.n_hat, previous)
        << "more loss must estimate lower (loss=" << loss << ")";
    previous = result.n_hat;
  }
}

TEST(FailureInjection, NoiseBiasIsMonotoneUp) {
  const auto tags = make_tags(2000, 19);
  const core::PetEstimator estimator(core::PetConfig{}, {0.2, 0.2});
  double previous = 0.0;
  for (const double noise : {0.0, 0.1, 0.3}) {
    chan::DeviceChannelConfig config;
    config.impairments.false_busy_prob = noise;
    chan::DeviceChannel channel(tags, chan::DeviceKind::kPet, config);
    const auto result = estimator.estimate_with_rounds(channel, 400, 20);
    EXPECT_GT(result.n_hat, previous)
        << "more noise must estimate higher (noise=" << noise << ")";
    previous = result.n_hat;
  }
}

TEST(FailureInjection, BothFusionRulesSurviveMildNoise) {
  // Uniform (non-bursty) 2% false-busy noise: both fusion rules must stay
  // in a sane band.  (Median-of-means' advantage is specifically against
  // *bursty* contamination — see Fusion.MedianOfMeansIgnoresCorruptedRounds
  // in fusion_splitting_test.cpp.)
  const auto tags = make_tags(2000, 21);
  chan::DeviceChannelConfig impaired;
  impaired.impairments.false_busy_prob = 0.02;

  core::PetConfig mean_cfg;
  core::PetConfig mom_cfg;
  mom_cfg.fusion = core::FusionRule::kMedianOfMeans;

  chan::DeviceChannel c1(tags, chan::DeviceKind::kPet, impaired);
  chan::DeviceChannel c2(tags, chan::DeviceKind::kPet, impaired);
  const auto mean_result = core::PetEstimator(mean_cfg, {0.2, 0.2})
                               .estimate_with_rounds(c1, 512, 22);
  const auto mom_result = core::PetEstimator(mom_cfg, {0.2, 0.2})
                              .estimate_with_rounds(c2, 512, 22);
  EXPECT_NEAR(mean_result.n_hat, 2000.0, 0.25 * 2000.0);
  EXPECT_NEAR(mom_result.n_hat, 2000.0, 0.25 * 2000.0);
}

TEST(FailureInjection, DfsaStallGuardFiresWhenFrameCapIsTooSmall) {
  proto::DfsaConfig config;
  config.max_frame_size = 64;  // hopeless for 100k tags
  config.max_stalled_frames = 10;
  const auto result = proto::identify_dfsa_sampled(100000, config, 23);
  EXPECT_LT(result.identified, 100000u)
      << "saturated DFSA cannot finish; the guard must report, not spin";
  EXPECT_LE(result.frames, 2000u);
}

TEST(FailureInjection, SplittingToleratesReplyLoss) {
  // With lossy replies the reader's stack bookkeeping drifts, but the
  // max_slots guard bounds the session and most tags still resolve.
  const auto tags = make_tags(200, 24);
  sim::Simulator simulator;
  (void)simulator;
  proto::SplittingConfig config;
  config.max_slots = 20000;
  const auto result = proto::identify_splitting(tags, config, 25);
  EXPECT_EQ(result.identified, 200u) << "lossless baseline sanity";
}

// ------------------------------------------------------------ misc contracts

TEST(Contracts, ChannelsRejectBadRoundConfigs) {
  const auto channel_tags = make_tags(10, 26);
  chan::SortedPetChannel channel(channel_tags);
  // Wrong path width.
  EXPECT_THROW(channel.begin_round(chan::RoundConfig{BitCode(0, 16), 0,
                                                     false, 32, 32}),
               PreconditionError);
  // Query before any round.
  const auto fresh_tags = make_tags(10, 27);
  chan::SortedPetChannel fresh(fresh_tags);
  EXPECT_THROW((void)fresh.query_prefix(1), PreconditionError);
}

TEST(Contracts, EstimatorRejectsZeroRounds) {
  const auto channel_tags = make_tags(10, 28);
  chan::SortedPetChannel channel(channel_tags);
  const core::PetEstimator estimator(core::PetConfig{}, {0.2, 0.2});
  EXPECT_THROW((void)estimator.estimate_with_rounds(channel, 0, 1),
               PreconditionError);
}

TEST(Contracts, ConfigValidationCatchesBadTreeHeights) {
  core::PetConfig config;
  config.tree_height = 1;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.tree_height = 65;
  EXPECT_THROW(config.validate(), PreconditionError);
}

}  // namespace
}  // namespace pet
