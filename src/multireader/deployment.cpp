#include "multireader/deployment.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "common/ensure.hpp"
#include "core/theory.hpp"
#include "multireader/controller.hpp"
#include "rng/prng.hpp"

namespace pet::multi {

namespace {

// One SortedPetChannel per reader over the tags audible in its zone.
// `audible` receives those tag sets and must outlive the channels, which
// keep a pointer to them for rebuild().
std::vector<std::unique_ptr<chan::PrefixChannel>> zone_readers(
    const tags::ZoneMap& zones, std::size_t readers, unsigned tree_height,
    std::vector<std::vector<TagId>>& audible) {
  audible.clear();
  for (std::size_t z = 0; z < readers; ++z) {
    audible.push_back(zones.audible_in(z));
  }
  chan::SortedPetChannelConfig channel_config;
  channel_config.tree_height = tree_height;
  std::vector<std::unique_ptr<chan::PrefixChannel>> channels;
  channels.reserve(readers);
  for (const std::vector<TagId>& ids : audible) {
    channels.push_back(
        std::make_unique<chan::SortedPetChannel>(ids, channel_config));
  }
  return channels;
}

}  // namespace

void DeploymentConfig::validate() const {
  expects(readers >= 1, "Deployment needs at least one reader");
  expects(coverage_overlap >= 0.0 && coverage_overlap <= 1.0,
          "coverage_overlap must be a probability");
  pet.validate();
  accuracy.validate();
  expects(!pet.tags_rehash,
          "Deployment assumes preloaded-code (passive-tag) populations");
}

Deployment::Deployment(DeploymentConfig config, std::size_t initial_tags)
    : config_(config), estimator_(config.pet, config.accuracy),
      population_(tags::TagPopulation::generate(
          initial_tags, rng::derive_seed(config.seed, 0x9090))),
      zones_(config.readers, rng::derive_seed(config.seed, 0x2045)) {
  config_.validate();
  zones_.scatter(population_);
  zones_.add_overlap(config_.coverage_overlap);
}

void Deployment::add_tags(std::size_t count) {
  population_.join_fresh(count, rng::derive_seed(config_.seed, 10 + epoch_));
  ++epoch_;
  zones_.scatter(population_);
  zones_.add_overlap(config_.coverage_overlap);
}

std::size_t Deployment::remove_tags(std::size_t count) {
  const std::size_t removed = population_.leave_random(
      count, rng::derive_seed(config_.seed, 20 + epoch_));
  ++epoch_;
  zones_.scatter(population_);
  zones_.add_overlap(config_.coverage_overlap);
  return removed;
}

std::size_t Deployment::shuffle_tags(double probability) {
  ++epoch_;
  return zones_.step(probability);
}

Census Deployment::run_census(std::optional<std::uint64_t> rounds,
                              double interval_delta) {
  std::vector<std::vector<TagId>> audible;  // outlives the reader channels
  MultiReaderController controller(
      zone_readers(zones_, config_.readers, config_.pet.tree_height,
                   audible));

  ++epoch_;
  const std::uint64_t census_seed =
      rng::derive_seed(config_.seed, 1000 + epoch_);
  const core::EstimateResult result =
      rounds.has_value()
          ? estimator_.estimate_with_rounds(controller, *rounds, census_seed)
          : estimator_.estimate(controller, census_seed);

  Census census;
  census.estimate = result.n_hat;
  census.cost = result.ledger;
  census.rounds = result.rounds;
  if (!result.depths.empty()) {
    census.interval = core::confidence_interval(result, interval_delta);
  }
  return census;
}

Census Deployment::census() {
  return run_census(std::nullopt, config_.accuracy.delta);
}

Census Deployment::census_with_rounds(std::uint64_t rounds) {
  return run_census(rounds, config_.accuracy.delta);
}

Census Deployment::estimate_missing(
    std::size_t manifest_count,
    std::optional<stats::AccuracyRequirement> audit_accuracy) {
  expects(manifest_count > 0, "estimate_missing: manifest must be positive");
  Census present;
  if (audit_accuracy.has_value()) {
    audit_accuracy->validate();
    // Spend the audit contract's round budget and report its interval.
    present = run_census(core::required_rounds(*audit_accuracy),
                         audit_accuracy->delta);
  } else {
    present = census();
  }
  Census missing;
  const double manifest = static_cast<double>(manifest_count);
  missing.estimate = std::max(0.0, manifest - present.estimate);
  missing.rounds = present.rounds;
  missing.cost = present.cost;
  // Present-count interval [lo, hi] maps to missing interval
  // [manifest - hi, manifest - lo].
  missing.interval.point = missing.estimate;
  missing.interval.lo = std::max(0.0, manifest - present.interval.hi);
  missing.interval.hi = std::max(0.0, manifest - present.interval.lo);
  return missing;
}

core::PetSketch Deployment::sketch(std::uint64_t rounds,
                                   std::uint64_t sketch_seed) {
  std::vector<std::vector<TagId>> audible;  // outlives the reader channels
  MultiReaderController controller(
      zone_readers(zones_, config_.readers, config_.pet.tree_height,
                   audible));
  return core::PetSketch::take(controller, config_.pet, rounds, sketch_seed);
}

}  // namespace pet::multi
