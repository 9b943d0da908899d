// Multi-reader bench (Section 4.6.3): estimation quality and cost as the
// deployment grows from one reader to many, with overlapping coverage and
// mobile tags.  The controller's duplicate-insensitive fusion should keep
// accuracy and slot cost flat regardless of reader count or overlap.
#include <cstdint>
#include <memory>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "core/estimator.hpp"
#include "harness/options.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"
#include "multireader/controller.hpp"
#include "rng/prng.hpp"
#include "runtime/trial_runner.hpp"
#include "stats/accuracy.hpp"
#include "tags/mobility.hpp"
#include "tags/population.hpp"

namespace {

// `audible` receives each zone's tag set and must outlive the controller,
// whose channels keep a pointer to it.
pet::multi::MultiReaderController make_controller(
    const pet::tags::ZoneMap& zones,
    std::vector<std::vector<pet::TagId>>& audible) {
  // Sorted preloaded-code channels per zone: duplicate tags in overlapping
  // zones carry identical codes (same manufacturing seed), which is what
  // makes the fusion duplicate-insensitive.
  audible.clear();
  for (std::size_t z = 0; z < zones.zone_count(); ++z) {
    audible.push_back(zones.audible_in(z));
  }
  std::vector<std::unique_ptr<pet::chan::PrefixChannel>> readers;
  for (const std::vector<pet::TagId>& ids : audible) {
    readers.push_back(std::make_unique<pet::chan::SortedPetChannel>(ids));
  }
  return pet::multi::MultiReaderController(std::move(readers));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pet;
  auto options = bench::BenchOptions::parse(
      argc, argv,
      "Multi-reader scenarios: readers/overlap/mobility sweeps with fused "
      "PET estimation.");
  // The exact per-zone channels make runs O(n) per round; scale the default
  // repetition count down accordingly.
  options.runs = std::min<std::uint64_t>(options.runs, 40);
  bench::BenchSession session(options, "multireader_bench");

  const std::uint64_t n = 20000;
  const stats::AccuracyRequirement req{0.10, 0.05};
  const core::PetEstimator estimator(core::PetConfig{}, req);

  {
    bench::TablePrinter table(
        "Readers sweep (n = 20000, overlap 30%, Eq.-20 rounds)",
        {"readers", "accuracy", "in-interval", "controller slots"},
        options.csv);
    table.bind(&session.report());
    for (const std::size_t readers : {1u, 2u, 4u, 8u, 16u}) {
      stats::TrialSummary summary(static_cast<double>(n));
      double slots = 0.0;
      runtime::global_runner().run<core::EstimateResult>(
          options.runs,
          [&](std::uint64_t run) {
            const auto pop = tags::TagPopulation::generate(n, 999);
            tags::ZoneMap zones(readers, rng::derive_seed(options.seed, run));
            zones.scatter(pop);
            zones.add_overlap(0.3);
            std::vector<std::vector<TagId>> audible;
            auto controller = make_controller(zones, audible);
            return estimator.estimate(
                controller, rng::derive_seed(options.seed, 1000 + run));
          },
          [&](std::uint64_t, core::EstimateResult&& result) {
            summary.add(result.n_hat);
            slots += static_cast<double>(result.ledger.total_slots()) /
                     static_cast<double>(options.runs);
          },
          "readers sweep");
      table.add_row({bench::TablePrinter::num(
                         static_cast<std::uint64_t>(readers)),
                     bench::TablePrinter::num(summary.accuracy(), 4),
                     bench::TablePrinter::num(
                         summary.fraction_within(req.epsilon), 3),
                     bench::TablePrinter::num(slots, 0)});
    }
    table.print();
  }

  {
    bench::TablePrinter table(
        "Overlap sweep (n = 20000, 4 readers)",
        {"overlap prob", "duplicated tags (avg)", "accuracy",
         "in-interval"},
        options.csv);
    table.bind(&session.report());
    for (const double overlap : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      stats::TrialSummary summary(static_cast<double>(n));
      double duplicated = 0.0;
      struct OverlapTrial {
        double n_hat;
        std::size_t audible_total;
      };
      runtime::global_runner().run<OverlapTrial>(
          options.runs,
          [&](std::uint64_t run) {
            const auto pop = tags::TagPopulation::generate(n, 999);
            tags::ZoneMap zones(4, rng::derive_seed(options.seed, 50 + run));
            zones.scatter(pop);
            zones.add_overlap(overlap);
            std::size_t audible_total = 0;
            for (std::size_t z = 0; z < 4; ++z) {
              audible_total += zones.audible_in(z).size();
            }
            std::vector<std::vector<TagId>> audible;
            auto controller = make_controller(zones, audible);
            const double n_hat =
                estimator
                    .estimate(controller,
                              rng::derive_seed(options.seed, 2000 + run))
                    .n_hat;
            return OverlapTrial{n_hat, audible_total};
          },
          [&](std::uint64_t, OverlapTrial&& trial) {
            duplicated += static_cast<double>(trial.audible_total - n) /
                          static_cast<double>(options.runs);
            summary.add(trial.n_hat);
          },
          "overlap sweep");
      table.add_row({bench::TablePrinter::num(overlap, 2),
                     bench::TablePrinter::num(duplicated, 0),
                     bench::TablePrinter::num(summary.accuracy(), 4),
                     bench::TablePrinter::num(
                         summary.fraction_within(req.epsilon), 3)});
    }
    table.print();
  }

  {
    bench::TablePrinter table(
        "Mobility sweep (n = 20000, 8 readers, tags move between "
        "estimates)",
        {"move prob/step", "accuracy", "in-interval"}, options.csv);
    table.bind(&session.report());
    // Stays serial: zones.step() carries the walk state from one estimate
    // to the next, so the trials are not independent.
    for (const double move : {0.0, 0.2, 0.5, 0.9}) {
      stats::TrialSummary summary(static_cast<double>(n));
      const auto pop = tags::TagPopulation::generate(n, 999);
      tags::ZoneMap zones(8, options.seed);
      zones.scatter(pop);
      for (std::uint64_t run = 0; run < options.runs; ++run) {
        zones.step(move);
        std::vector<std::vector<TagId>> audible;
        auto controller = make_controller(zones, audible);
        summary.add(estimator
                        .estimate(controller,
                                  rng::derive_seed(options.seed, 3000 + run))
                        .n_hat);
      }
      table.add_row({bench::TablePrinter::num(move, 2),
                     bench::TablePrinter::num(summary.accuracy(), 4),
                     bench::TablePrinter::num(
                         summary.fraction_within(req.epsilon), 3)});
    }
    table.print();
  }
  return 0;
}
