#include "gen2/channel.hpp"

#include <algorithm>
#include <bit>

#include "common/ensure.hpp"
#include "obs/instruments.hpp"

namespace pet::gen2 {

namespace {
const obs::ChannelInstruments& chan_obs() {
  static const obs::ChannelInstruments bundle("gen2");
  return bundle;
}
}  // namespace

Gen2PrefixChannel::Gen2PrefixChannel(std::vector<TagId> tags,
                                     Gen2ChannelConfig config)
    : tags_(std::move(tags)),
      config_(config),
      mac_(Gen2MacConfig{config.link, config.impairments, config.bits}) {
  expects(config_.tree_height >= 1 &&
              config_.tree_height <= BitCode::kMaxWidth,
          "Gen2PrefixChannel: tree height must be in [1, 64]");
  preloaded_.reserve(tags_.size());
  for (const TagId id : tags_) {
    preloaded_.push_back(rng::uniform_code(config_.hash,
                                           config_.manufacturing_seed, id,
                                           config_.tree_height));
  }
}

void Gen2PrefixChannel::select_broadcast(unsigned mask_bits) {
  const unsigned command_bits = config_.bits.select(mask_bits);
  mac_.broadcast(command_bits);
  if (obs::counters_enabled()) {
    const obs::Gen2Instruments& gi = obs::gen2_instruments();
    gi.select_commands.add();
    gi.select_bits.add(command_bits);
  }
}

void Gen2PrefixChannel::begin_round(const chan::RoundConfig& round) {
  expects(round.path.width() == config_.tree_height,
          "begin_round: path width must equal the tree height H");
  expects(!round.tags_rehash,
          "Gen2PrefixChannel: Select masks compare against EPC memory — "
          "per-round rehash (Algorithm 2) has no Gen2 encoding; use "
          "preloaded codes (Algorithm 4)");

  const unsigned h = config_.tree_height;
  depth_count_.assign(h + 1, 0);

  std::vector<std::uint32_t> at_depth(h + 1, 0);
  for (const BitCode& code : preloaded_) {
    ++at_depth[code.common_prefix_len(round.path)];
  }
  std::uint32_t suffix = 0;
  for (unsigned k = h + 1; k-- > 0;) {
    suffix += at_depth[k];
    depth_count_[k] = suffix;
  }
  // No separate round-begin packet: the per-probe Selects carry the path,
  // which is the whole point of the mapping (docs/gen2.md).
  mac_.refresh_obs();
  if (obs::counters_enabled()) chan_obs().rounds.add();
}

bool Gen2PrefixChannel::query_prefix(unsigned len) {
  expects(len <= config_.tree_height, "query_prefix: len exceeds H");
  expects(!depth_count_.empty(), "query_prefix before begin_round");
  const std::size_t responders = depth_count_[len];

  select_broadcast(len);
  const unsigned reply_bits =
      config_.truncate
          ? (config_.tree_height > len ? config_.tree_height - len : 1)
          : config_.bits.rn16;
  if (obs::counters_enabled()) {
    chan_obs().probe_slots.add();
    obs::gen2_instruments().query_commands.add();
  }
  const Gen2SlotResult slot =
      mac_.run_slot(responders, config_.bits.query, reply_bits);
  if (obs::counters_enabled() && slot.outcome != SlotOutcome::kIdle) {
    chan_obs().busy_slots.add();
  }
  return slot.outcome != SlotOutcome::kIdle;
}

void Gen2PrefixChannel::begin_range_frame(const chan::RangeFrameConfig& frame) {
  expects(frame.frame_size >= 1, "begin_range_frame: empty frame");
  range_slots_.clear();
  range_slots_.reserve(tags_.size());
  for (const TagId id : tags_) {
    range_slots_.push_back(
        rng::uniform_slot(config_.hash, frame.seed, id, frame.frame_size));
  }
  std::sort(range_slots_.begin(), range_slots_.end());
  range_frame_size_ = frame.frame_size;
  mac_.refresh_obs();
  // The conceptual frame is announced once; the dyadic Selects per probe
  // carry the actual ranges.
  mac_.broadcast(frame.begin_bits);
}

bool Gen2PrefixChannel::query_range(std::uint64_t bound) {
  expects(range_frame_size_ >= 1, "query_range before begin_range_frame");
  const auto end =
      std::upper_bound(range_slots_.begin(), range_slots_.end(), bound);
  const auto responders =
      static_cast<std::size_t>(end - range_slots_.begin());

  // "Slot index <= bound" as Select masks: cover [1, bound] with its
  // dyadic decomposition — one Select per set bit of bound, each mask as
  // wide as a slot index.
  const unsigned index_bits = range_frame_size_ <= 1
                                  ? 1
                                  : static_cast<unsigned>(
                                        std::bit_width(range_frame_size_ - 1));
  const auto selects =
      static_cast<unsigned>(std::popcount(bound == 0 ? std::uint64_t{1}
                                                     : bound));
  for (unsigned i = 0; i < selects; ++i) select_broadcast(index_bits);

  if (obs::counters_enabled()) {
    chan_obs().frame_slots.add();
    obs::gen2_instruments().query_commands.add();
  }
  const Gen2SlotResult slot =
      mac_.run_slot(responders, config_.bits.query, config_.bits.rn16);
  if (obs::counters_enabled() && slot.outcome != SlotOutcome::kIdle) {
    chan_obs().busy_slots.add();
  }
  return slot.outcome != SlotOutcome::kIdle;
}

const std::vector<SlotOutcome>& Gen2PrefixChannel::run_frame(
    const chan::FrameConfig& frame) {
  expects(frame.frame_size >= 1, "run_frame: empty frame");
  expects(frame.persistence > 0.0 && frame.persistence <= 1.0,
          "run_frame: persistence must be in (0, 1]");

  // Occupancy sampling bit-identical to ExactChannel::run_frame (same
  // persistence salt, same slot hashes) so the clean-config outcome stream
  // matches the ideal reference exactly.
  frame_occupancy_.assign(frame.frame_size, 0);
  for (const TagId id : tags_) {
    if (frame.persistence < 1.0) {
      const std::uint64_t coin = rng::uniform64(
          config_.hash, frame.seed ^ 0xc01cc01cc01cc01cULL, to_underlying(id));
      const auto threshold = static_cast<std::uint64_t>(
          frame.persistence * 18446744073709551615.0);
      if (coin > threshold) continue;
    }
    const std::uint64_t slot =
        frame.geometric
            ? rng::geometric_level(config_.hash, frame.seed, id,
                                   static_cast<unsigned>(frame.frame_size))
            : rng::uniform_slot(config_.hash, frame.seed, id,
                                frame.frame_size);
    ++frame_occupancy_[slot - 1];
  }

  mac_.refresh_obs();
  // Session Select (everyone participates), then Query opens slot 0 and
  // QueryRep steps the remainder.
  select_broadcast(0);
  if (obs::counters_enabled()) {
    chan_obs().frame_slots.add(frame.frame_size);
    obs::gen2_instruments().query_commands.add(frame.frame_size);
  }
  frame_outcomes_.clear();
  frame_outcomes_.reserve(frame.frame_size);
  bool first = true;
  for (const std::uint32_t count : frame_occupancy_) {
    const unsigned cmd_bits =
        first ? config_.bits.query : config_.bits.query_rep;
    first = false;
    const Gen2SlotResult slot =
        mac_.run_slot(count, cmd_bits, config_.bits.rn16);
    if (obs::counters_enabled() && slot.outcome != SlotOutcome::kIdle) {
      chan_obs().busy_slots.add();
    }
    frame_outcomes_.push_back(slot.outcome);
  }
  return frame_outcomes_;
}

}  // namespace pet::gen2
