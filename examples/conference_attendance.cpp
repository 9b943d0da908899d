// Conference attendance: the paper's RFID-badge scenario (Section 1) —
// count attendees across several exhibition halls, each covered by its own
// reader, with overlapping coverage near the doorways and people wandering
// between halls during the day.
//
// Demonstrates the multi-reader controller (Section 4.6.3): one fused
// estimate per session, never double-counting badges heard by two readers,
// and the anonymity property — the organizers learn the crowd size, not who
// is where.
#include <cstdio>
#include <memory>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "core/estimator.hpp"
#include "multireader/controller.hpp"
#include "tags/mobility.hpp"
#include "tags/population.hpp"

namespace {

// `audible` receives each hall's badge set and must outlive the
// controller, whose channels keep a pointer to it.
pet::multi::MultiReaderController controller_for(
    const pet::tags::ZoneMap& halls,
    std::vector<std::vector<pet::TagId>>& audible) {
  audible.clear();
  for (std::size_t hall = 0; hall < halls.zone_count(); ++hall) {
    audible.push_back(halls.audible_in(hall));
  }
  std::vector<std::unique_ptr<pet::chan::PrefixChannel>> readers;
  for (const std::vector<pet::TagId>& badges : audible) {
    readers.push_back(std::make_unique<pet::chan::SortedPetChannel>(badges));
  }
  return pet::multi::MultiReaderController(std::move(readers));
}

}  // namespace

int main() {
  using namespace pet;

  constexpr std::size_t kAttendees = 12000;
  constexpr std::size_t kHalls = 6;

  // Every attendee badge carries a preloaded 32-bit PET code.
  const auto badges = tags::TagPopulation::generate(kAttendees, 2026);
  tags::ZoneMap halls(kHalls, 42);
  halls.scatter(badges);
  halls.add_overlap(0.15);  // doorway overlap: some badges heard twice

  const stats::AccuracyRequirement requirement{0.05, 0.05};
  const core::PetEstimator estimator(core::PetConfig{}, requirement);

  std::printf("venue: %zu halls, %zu registered attendees, 15%% doorway "
              "overlap\n",
              kHalls, kAttendees);
  std::printf("contract: +/-5%% at 95%% confidence "
              "(%llu rounds x 5 slots per census)\n\n",
              static_cast<unsigned long long>(estimator.planned_rounds()));
  std::printf("%-10s %16s %10s %16s\n", "session", "distinct badges",
              "estimate", "controller slots");

  const char* sessions[] = {"keynote", "morning", "lunch", "afternoon",
                            "closing"};
  std::uint64_t seed = 1;
  for (const char* session : sessions) {
    std::vector<std::vector<TagId>> audible;
    auto controller = controller_for(halls, audible);
    const auto result = estimator.estimate(controller, seed);
    std::printf("%-10s %16zu %10.0f %16llu\n", session, halls.distinct_tags(),
                result.n_hat,
                static_cast<unsigned long long>(result.ledger.total_slots()));
    // Between sessions a third of the crowd wanders to another hall.
    halls.step(0.33);
    ++seed;
  }

  std::printf("\nevery census costs the same 5 slots/round regardless of "
              "reader count,\nand no badge ever transmits its identity "
              "(Section 4.6.4).\n");
  return 0;
}
