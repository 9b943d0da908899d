// SampledChannel: distribution-exact back end that needs only the tag
// *count* n, never per-tag state.
//
// For protocols that re-randomize every round (PET Algorithm 2, FNEB, LoF,
// UPE, EZB), the per-round observable has a closed-form distribution in n:
//   * PET prefix depth d:  P(d >= k) = 1 - (1 - 2^-k)^n        (Eq. 5 view)
//   * FNEB first nonempty: P(X > b)  = ((f - b)/f)^n
//   * frame occupancy:     multinomial, sampled exactly by sequential
//                          binomial splitting slot by slot.
// Sampling that distribution directly is *statistically identical* to
// hashing n tags (property-tested against ExactChannel) and costs O(H),
// O(1) and O(f) per round respectively — enabling the paper's 300-run
// million-tag sweeps on a laptop.
//
// Caveats, by design:
//   * rounds are independent — this models per-round rehashing, not the
//     shared preloaded codes of Algorithm 4 (use SortedPetChannel there);
//   * the ledger cannot distinguish singleton from collision for PET/FNEB
//     probes (only presence is sampled), so nonempty probe slots are
//     recorded as collisions; estimation protocols never use that split.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.hpp"
#include "obs/instruments.hpp"
#include "rng/prng.hpp"
#include "sim/simulator.hpp"

namespace pet::chan {

struct SampledChannelConfig {
  unsigned tree_height = 32;
  sim::SlotTiming timing{};
};

class SampledChannel final : public PrefixChannel,
                             public RangeChannel,
                             public FrameChannel {
 public:
  SampledChannel(std::uint64_t tag_count, std::uint64_t seed,
                 SampledChannelConfig config = {});

  [[nodiscard]] std::uint64_t tag_count() const noexcept { return n_; }

  /// Change the population size (dynamic scenarios); next round sees it.
  void set_tag_count(std::uint64_t n) noexcept { n_ = n; }

  /// Reinitialize to the state of a freshly constructed channel with this
  /// population and seed, keeping the capacity of internal buffers.  Lets
  /// the sweep harness reuse one channel per worker thread instead of
  /// constructing one per trial.
  void reset(std::uint64_t tag_count, std::uint64_t seed) noexcept;

  // PrefixChannel
  void begin_round(const RoundConfig& round) override;
  bool query_prefix(unsigned len) override;

  // RangeChannel
  void begin_range_frame(const RangeFrameConfig& frame) override;
  bool query_range(std::uint64_t bound) override;

  // FrameChannel
  const std::vector<SlotOutcome>& run_frame(const FrameConfig& frame) override;

  [[nodiscard]] const sim::SlotLedger& ledger() const noexcept override {
    return ledger_;
  }
  void reset_ledger() noexcept override { ledger_ = {}; }
  void note_retries(std::uint64_t slots) noexcept override {
    ledger_.retry_slots += slots;
    if (obs::counters_enabled()) {
      obs::ledger_instruments().retry_slots.add(slots);
    }
  }

 private:
  void account_slot(bool busy, unsigned downlink_bits,
                    std::uint64_t responders_hint);

  std::uint64_t n_;
  SampledChannelConfig config_;
  rng::Xoshiro256ss gen_;
  unsigned sampled_depth_ = 0;     ///< sampled d for the open PET round
  bool round_open_ = false;
  unsigned round_query_bits_ = 32;
  std::uint64_t first_nonempty_ = 0;  ///< sampled X for the open FNEB frame
  bool range_open_ = false;
  unsigned range_query_bits_ = 32;
  std::uint8_t obs_mode_ = 0;  ///< obs level snapshot, refreshed per round/frame
  std::vector<SlotOutcome> frame_outcomes_;  ///< run_frame result buffer
  sim::SlotLedger ledger_;
};

}  // namespace pet::chan
