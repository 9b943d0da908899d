// SortedPetChannel: scalable back end for preloaded-code PET (Algorithm 4).
//
// With preloaded codes the tag-side state never changes within a trial, and
// a PET round asks the code set only two questions: the gray-node depth
// d = max lcp(code, path), and how many codes lie under one prefix of the
// path.  Both are node populations of the top of the PET tree, so the
// channel indexes the codes by their top k bits (a prefix bucket per level-k
// node, one counting pass per build) instead of sorting them: a probe of a
// prefix no longer than k is one difference of two bucket bounds, a longer
// one scans the path's bucket (about 4-8 codes), and the depth is a maximum
// over that bucket or its two neighbours.  This is bit-identical to
// ExactChannel — same hash family, same codes, same outcomes including
// singleton/collision classification — at O(1) expected work per probe,
// which is what makes the 300-run x million-tag paper sweeps tractable.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.hpp"
#include "rng/hash_family.hpp"
#include "sim/simulator.hpp"

namespace pet::chan {

struct SortedPetChannelConfig {
  unsigned tree_height = 32;
  rng::HashKind hash = rng::HashKind::kMix64;
  std::uint64_t manufacturing_seed = 0x9a9a5eedULL;
  sim::SlotTiming timing{};
};

class SortedPetChannel final : public PrefixChannel {
 public:
  /// `tags` must outlive the channel if rebuild() is used: rebuild rehashes
  /// through the reference captured here (the trial-arena reuse contract).
  SortedPetChannel(const std::vector<TagId>& tags,
                   SortedPetChannelConfig config = {});
  /// A temporary would leave rebuild() reading freed memory.
  SortedPetChannel(std::vector<TagId>&&, SortedPetChannelConfig = {}) = delete;
  ~SortedPetChannel() override;

  [[nodiscard]] std::size_t tag_count() const noexcept {
    return code_values_.size();
  }

  /// Re-key the preloaded codes under a new manufacturing seed, reusing the
  /// channel's code, index and scratch buffers.  Equivalent to destroying
  /// the channel and constructing a fresh one over the same tags with the
  /// new seed -- this is what lets steady-state sweep trials allocate
  /// nothing.  Pending obs deltas are flushed first; the ledger is left
  /// untouched (callers reset_ledger() per trial as before).
  void rebuild(std::uint64_t manufacturing_seed);

  /// Publish ledger deltas accumulated since the last round boundary to the
  /// obs registry.  Called internally at round boundaries and destruction;
  /// arena-reusing drivers call it at trial end so metric snapshots taken
  /// while the channel is still alive are complete.
  void flush_obs();

  void begin_round(const RoundConfig& round) override;
  bool query_prefix(unsigned len) override;

  [[nodiscard]] const sim::SlotLedger& ledger() const noexcept override {
    return ledger_;
  }
  void reset_ledger() noexcept override {
    ledger_ = {};
    obs_published_ = {};
  }
  /// Retries land in the ledger only; the obs mirror picks up the delta at
  /// the next round boundary (see flush_obs in the .cpp).
  void note_retries(std::uint64_t slots) noexcept override {
    ledger_.retry_slots += slots;
  }

 private:
  void build_codes();
  [[nodiscard]] std::size_t count_in_range(unsigned len) const noexcept;
  void account_probe(std::size_t responders) noexcept;
  void ensure_depth();

  SortedPetChannelConfig config_;
  const std::vector<TagId>* tags_;  ///< rebuild() rehash source
  /// H-bit code values grouped by their top prefix_bits_ bits; unordered
  /// inside a bucket.
  std::vector<std::uint64_t> code_values_;
  /// Bucket b is code_values_[bucket_end_[b], bucket_end_[b+1]) (2^k + 1
  /// entries, bucket_end_[0] == 0).
  std::vector<std::uint32_t> bucket_end_;
  std::vector<std::uint64_t> hash_scratch_;      ///< codes in tag order
  std::vector<std::uint32_t> partition_counts_;  ///< per-chunk cursors
  unsigned prefix_bits_ = 1;  ///< k, a pure function of (n, H)
  std::uint64_t path_value_ = 0;
  std::size_t path_bucket_ = 0;  ///< top k bits of path_value_
  unsigned query_bits_ = 32;
  bool round_open_ = false;
  bool depth_valid_ = false;  ///< depth_ computed for this round
  unsigned depth_ = 0;        ///< max lcp(code, path) this round
  sim::SlotLedger ledger_;
  sim::SlotLedger obs_published_;  ///< ledger state already mirrored to obs
};

}  // namespace pet::chan
