// Unit tests for the statistical conformance harness (src/verify): GoF
// primitives against known quantiles and against the oracle's own samples,
// the BENCH artifact parser/comparator, fault-replay determinism across
// thread counts, and the test-only phi mutation hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/ensure.hpp"

#include "core/constants.hpp"
#include "core/theory.hpp"
#include "rng/prng.hpp"
#include "runtime/json.hpp"
#include "runtime/trial_runner.hpp"
#include "verify/benchjson.hpp"
#include "verify/calibration.hpp"
#include "verify/conformance.hpp"
#include "verify/depth_sampling.hpp"
#include "verify/gof.hpp"

namespace pet {
namespace {

using verify::DepthCounts;

// ------------------------------------------------------------- primitives

TEST(Gof, ChiSquareCriticalMatchesTables) {
  // Wilson-Hilferty is accurate to ~1% at these dofs; reference values
  // from standard chi-square tables.
  EXPECT_NEAR(verify::chi_square_critical(10, 0.05), 18.307, 0.2);
  EXPECT_NEAR(verify::chi_square_critical(5, 0.01), 15.086, 0.2);
  EXPECT_NEAR(verify::chi_square_critical(30, 0.05), 43.773, 0.4);
  // Monotone in dof and in 1 - alpha.
  EXPECT_LT(verify::chi_square_critical(5, 0.05),
            verify::chi_square_critical(6, 0.05));
  EXPECT_LT(verify::chi_square_critical(5, 0.05),
            verify::chi_square_critical(5, 0.01));
}

TEST(Gof, KsCriticalIsTheDkwBound) {
  const double expected = std::sqrt(std::log(2.0 / 0.05) / (2.0 * 1000.0));
  EXPECT_NEAR(verify::ks_one_sample_critical(1000, 0.05), expected, 1e-12);
  EXPECT_LT(verify::ks_one_sample_critical(4000, 0.05),
            verify::ks_one_sample_critical(1000, 0.05));
}

TEST(Gof, BonferroniDividesTheFamilyLevel) {
  EXPECT_DOUBLE_EQ(verify::bonferroni_alpha(0.05, 10), 0.005);
  EXPECT_DOUBLE_EQ(verify::bonferroni_alpha(0.01, 1), 0.01);
}

// The decisive property: samples drawn from the oracle itself must be
// accepted; samples from a different population size must be rejected.
DepthCounts sample_oracle(std::uint64_t n, unsigned height,
                          std::uint64_t draws, std::uint64_t seed) {
  const core::DepthDistribution dist(n, height);
  rng::Xoshiro256ss gen(seed);
  DepthCounts counts(height + 1, 0);
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[dist.sample(gen)];
  return counts;
}

TEST(Gof, AcceptsOracleSamplesRejectsWrongPopulation) {
  const core::DepthDistribution theory(5000, 32);
  const auto own = sample_oracle(5000, 32, 4000, 7);
  EXPECT_FALSE(verify::chi_square_depth_gof(own, theory, 0.01).reject());
  EXPECT_FALSE(verify::ks_depth_gof(own, theory, 0.01).reject());

  // Double the population: the law shifts by one depth — gross.
  const auto wrong = sample_oracle(10000, 32, 4000, 7);
  EXPECT_TRUE(verify::chi_square_depth_gof(wrong, theory, 0.01).reject());
  EXPECT_TRUE(verify::ks_depth_gof(wrong, theory, 0.01).reject());
}

TEST(Gof, ChiSquareRejectsDegenerateHistograms) {
  const core::DepthDistribution theory(5000, 32);
  EXPECT_THROW((void)verify::chi_square_depth_gof(DepthCounts(33, 0), theory,
                                                  0.01),
               PreconditionError);
  // Histogram length must cover the full support [0, H].
  EXPECT_THROW((void)verify::chi_square_depth_gof(DepthCounts(4, 1), theory,
                                                  0.01),
               PreconditionError);
}

// --------------------------------------------------------- bench artifacts

TEST(BenchJson, RoundTripsReportWithEscapes) {
  runtime::BenchReport report("verify_test", 3);
  report.set_wall_seconds(1.25);
  report.add_row("Table \"X\"\nline2", {"col,a", "tab\tcol"},
                 {"1.5", "va\\lue"});
  const auto artifact = verify::parse_bench_json(report.to_json());
  EXPECT_EQ(artifact.target, "verify_test");
  EXPECT_EQ(artifact.threads, 3u);
  EXPECT_DOUBLE_EQ(artifact.wall_seconds, 1.25);
  ASSERT_EQ(artifact.rows.size(), 1u);
  const auto& row = artifact.rows[0];
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].first, "table");
  EXPECT_EQ(row[0].second, "Table \"X\"\nline2");
  EXPECT_EQ(row[1].first, "col,a");
  EXPECT_EQ(row[2].first, "tab\tcol");
  EXPECT_EQ(row[2].second, "va\\lue");
}

TEST(BenchJson, NonFiniteWallSecondsSerializesAsNullAndParses) {
  EXPECT_EQ(runtime::json_number(std::nan(""), 3), "null");
  EXPECT_EQ(runtime::json_number(HUGE_VAL, 3), "null");
  EXPECT_EQ(runtime::json_number(1.0 / 3.0, 3), "0.333");

  runtime::BenchReport report("nan_case", 1);
  report.set_wall_seconds(std::nan(""));
  const auto artifact = verify::parse_bench_json(report.to_json());
  EXPECT_TRUE(std::isnan(artifact.wall_seconds));
}

TEST(BenchJson, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)verify::parse_bench_json("{"), std::runtime_error);
  EXPECT_THROW((void)verify::parse_bench_json("{\"rows\": []}"),
               std::runtime_error);  // missing target
  EXPECT_THROW((void)verify::parse_bench_json(
                   "{\"target\": \"x\", \"rows\": []} trailing"),
               std::runtime_error);
  EXPECT_THROW((void)verify::parse_bench_json(
                   "{\"target\": \"x\", \"bogus\": 1, \"rows\": []}"),
               std::runtime_error);
}

TEST(BenchJson, ParserEnforcesTheSchemaOnEveryMember) {
  const auto parses = [](const std::string& members) {
    return verify::parse_bench_json("{\"target\": \"x\", " + members + "}");
  };
  EXPECT_NO_THROW((void)parses("\"rows\": [{\"a\": \"\\u001f\"}]"));
  const char* const bad[] = {
      "\"rows\": [{\"a\": 1}]",                 // non-string cell
      "\"rows\": [[\"a\"]]",                    // row not an object
      "\"rows\": {}",                           // rows not an array
      "\"threads\": \"2\", \"rows\": []",       // threads not a number
      "\"wall_seconds\": \"1\", \"rows\": []",  // neither number nor null
      "\"truncated\": 1, \"rows\": []",         // truncated not a boolean
      "\"rows\": [{\"a\": \"\\u00e9\"}]",       // \u escape past ASCII
  };
  for (const char* members : bad) {
    EXPECT_THROW((void)parses(members), std::runtime_error) << members;
  }
  EXPECT_THROW((void)verify::parse_bench_json(
                   "{\"target\": 1, \"rows\": []}"),
               std::runtime_error);
  EXPECT_THROW((void)verify::parse_bench_json("[]"), std::runtime_error);
}

// A SIGINT/SIGTERM-drained sweep marks its artifact "truncated": true.  It
// must parse, and the diff must refuse it by name rather than report a
// row-count regression or a parse error.
TEST(BenchJson, TruncatedArtifactParsesAndNeverMatches) {
  runtime::BenchReport report("t", 1);
  report.add_row("T", {"m"}, {"1"});
  const auto whole = verify::parse_bench_json(report.to_json());
  EXPECT_FALSE(whole.truncated);
  report.set_truncated(true);
  const auto drained = verify::parse_bench_json(report.to_json());
  EXPECT_TRUE(drained.truncated);
  ASSERT_EQ(drained.rows, whole.rows);

  const auto diff = verify::diff_bench(whole, drained);
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_NE(diff.mismatches[0].find("candidate is truncated"),
            std::string::npos)
      << diff.mismatches[0];
  const auto reversed = verify::diff_bench(drained, whole);
  ASSERT_EQ(reversed.mismatches.size(), 1u);
  EXPECT_NE(reversed.mismatches[0].find("golden is truncated"),
            std::string::npos)
      << reversed.mismatches[0];
}

verify::BenchArtifact tiny_artifact(const std::string& cell) {
  runtime::BenchReport report("t", 1);
  report.add_row("T", {"m", "value"}, {"64", cell});
  return verify::parse_bench_json(report.to_json());
}

TEST(BenchJson, DiffToleratesNumericDriftWithinBounds) {
  const auto golden = tiny_artifact("100.0");
  EXPECT_TRUE(verify::diff_bench(golden, tiny_artifact("104.9")).ok());
  EXPECT_FALSE(verify::diff_bench(golden, tiny_artifact("105.1")).ok());
  verify::BenchDiffOptions tight;
  tight.rtol = 0.0;
  tight.atol = 0.5;
  EXPECT_TRUE(verify::diff_bench(golden, tiny_artifact("100.4"), tight).ok());
  EXPECT_FALSE(verify::diff_bench(golden, tiny_artifact("100.6"), tight).ok());
}

TEST(BenchJson, DiffIsExactForNonNumericCells) {
  const auto golden = tiny_artifact("fast");
  EXPECT_TRUE(verify::diff_bench(golden, tiny_artifact("fast")).ok());
  EXPECT_FALSE(verify::diff_bench(golden, tiny_artifact("slow")).ok());
}

TEST(BenchJson, DiffCatchesStructuralDrift) {
  const auto golden = tiny_artifact("1");
  auto extra_rows = golden;
  extra_rows.rows.push_back(golden.rows[0]);
  EXPECT_FALSE(verify::diff_bench(golden, extra_rows).ok());

  auto renamed = golden;
  renamed.rows[0][1].first = "renamed";
  EXPECT_FALSE(verify::diff_bench(golden, renamed).ok());

  auto other_target = golden;
  other_target.target = "other";
  EXPECT_FALSE(verify::diff_bench(golden, other_target).ok());

  // threads / wall_seconds are run metadata, never compared.
  auto retimed = golden;
  retimed.threads = 99;
  retimed.wall_seconds = 1e9;
  EXPECT_TRUE(verify::diff_bench(golden, retimed).ok());
}

// ------------------------------------------------- determinism / sampling

TEST(DepthSampling, HistogramIsThreadCountInvariant) {
  verify::DepthSampleSpec spec;
  spec.backend = verify::DepthBackend::kDeviceRehash;
  spec.n = 64;
  spec.tree_height = 16;
  spec.trials = 24;
  spec.rounds_per_trial = 4;
  spec.seed = 11;
  // Arm every fault source: replay must still be trial-indexed.
  spec.impairments.reply_loss_prob = 0.2;
  spec.impairments.burst.p_good_to_bad = 0.1;
  spec.impairments.burst.p_bad_to_good = 0.3;
  spec.impairments.noise_transient.p_start = 0.1;
  spec.impairments.noise_transient.p_stop = 0.3;
  spec.impairments.noise_transient.noisy_false_busy_prob = 0.4;
  spec.impairments.script.outages.push_back(sim::ReaderOutage{5, 10});

  DepthCounts reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    runtime::TrialRunner runner(threads, false);
    const auto counts = verify::collect_depths(spec, runner);
    if (reference.empty()) {
      reference = counts;
    } else {
      EXPECT_EQ(counts, reference) << "threads=" << threads;
    }
  }
  std::uint64_t total = 0;
  for (const auto c : reference) total += c;
  EXPECT_EQ(total, spec.trials * spec.rounds_per_trial);
}

TEST(DepthSampling, PreloadedBackendsRequireOneRoundPerTrial) {
  verify::DepthSampleSpec spec;
  spec.backend = verify::DepthBackend::kSortedPreloaded;
  spec.n = 16;
  spec.trials = 2;
  spec.rounds_per_trial = 4;
  runtime::TrialRunner runner(1, false);
  EXPECT_THROW((void)verify::collect_depths(spec, runner), PreconditionError);
}

TEST(Calibration, ResultsAreThreadCountInvariant) {
  verify::CalibrationSpec spec;
  spec.n = 2000;
  spec.trials = 24;
  spec.rounds = 16;
  spec.seed = 5;
  runtime::TrialRunner serial(1, false);
  runtime::TrialRunner parallel(4, false);
  const auto a = verify::calibrate_pet(spec, serial);
  const auto b = verify::calibrate_pet(spec, parallel);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.variance_ratio, b.variance_ratio);
}

// ------------------------------------------------------------ mutation hook

TEST(PhiBias, ScopedBiasScalesEstimatesAndRestores) {
  const double clean = core::estimate_from_mean_depth(10.0);
  EXPECT_NEAR(clean, std::exp2(10.0) / core::kPhi, 1e-9);
  {
    core::testing::ScopedPhiBias bias(2.0);
    EXPECT_NEAR(core::estimate_from_mean_depth(10.0), clean / 2.0, 1e-9);
  }
  EXPECT_NEAR(core::estimate_from_mean_depth(10.0), clean, 1e-9);
}

// ------------------------------------------------------------- registry

TEST(Conformance, RegistryNamesAreStable) {
  const auto names = verify::conformance_check_names();
  EXPECT_GE(names.size(), 16u);
  const std::vector<std::string> expected = {
      "theory/self-consistency", "gof/sampled-clean",
      "gof/device-outage-breaks", "calibration/pet", "calibration/ezb"};
  for (const auto& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(Conformance, FilterSelectsSubsetAndTheoryPasses) {
  verify::ConformanceOptions options;
  options.quick = true;
  options.filter = "theory/";
  runtime::TrialRunner runner(1, false);
  const auto report = verify::run_conformance(options, runner);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.checks[0].passed) << report.checks[0].detail;
  EXPECT_TRUE(report.all_passed());
  EXPECT_EQ(report.failures(), 0u);
}

}  // namespace
}  // namespace pet
