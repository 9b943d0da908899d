#include "channel/sampled_channel.hpp"

#include <cmath>
#include <random>

#include "common/ensure.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace pet::chan {

namespace {
const obs::ChannelInstruments& chan_obs() {
  static const obs::ChannelInstruments bundle("sampled");
  return bundle;
}
}  // namespace

namespace {

/// Uniform double in (0, 1), 53-bit resolution.
double unit_uniform(rng::Xoshiro256ss& gen) {
  double u;
  do {
    u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
  } while (u <= 0.0);
  return u;
}

}  // namespace

SampledChannel::SampledChannel(std::uint64_t tag_count, std::uint64_t seed,
                               SampledChannelConfig config)
    : n_(tag_count), config_(config), gen_(seed) {
  expects(config_.tree_height >= 1 &&
              config_.tree_height <= BitCode::kMaxWidth,
          "SampledChannel: tree height must be in [1, 64]");
}

void SampledChannel::reset(std::uint64_t tag_count,
                           std::uint64_t seed) noexcept {
  n_ = tag_count;
  gen_ = rng::Xoshiro256ss(seed);
  round_open_ = false;
  range_open_ = false;
  ledger_ = {};
}

void SampledChannel::account_slot(bool busy, unsigned downlink_bits,
                                  std::uint64_t responders_hint) {
  if (!busy) {
    ++ledger_.idle_slots;
  } else if (responders_hint == 1) {
    ++ledger_.singleton_slots;
  } else {
    ++ledger_.collision_slots;
  }
  ledger_.reader_bits += downlink_bits;
  ledger_.tag_bits += responders_hint;
  ledger_.airtime_us += config_.timing.slot_us();
  if (obs::counters_enabled(obs_mode_)) {
    obs::record_ledger_slot(!busy ? 0 : (responders_hint == 1 ? 1 : 2),
                            downlink_bits, responders_hint);
    if (busy) chan_obs().busy_slots.add();
    if (obs::full_enabled(obs_mode_)) obs::advance_trace_slot();
  }
}

void SampledChannel::begin_round(const RoundConfig& round) {
  expects(round.path.width() == config_.tree_height,
          "begin_round: path width must equal the tree height H");
  round_open_ = true;
  round_query_bits_ = round.query_bits;
  ledger_.reader_bits += round.begin_bits;
  obs_mode_ = obs::level_byte();
  if (obs::counters_enabled(obs_mode_)) {
    chan_obs().rounds.add();
    obs::ledger_instruments().reader_bits.add(round.begin_bits);
  }

  if (n_ == 0) {
    sampled_depth_ = 0;
    return;
  }
  // Inverse-transform sample of the prefix depth d:
  //   P(d <= k) = (1 - 2^-(k+1))^n   for k < H,   P(d <= H) = 1.
  const double u = unit_uniform(gen_);
  const double dn = static_cast<double>(n_);
  unsigned k = config_.tree_height;
  for (unsigned i = 0; i < config_.tree_height; ++i) {
    const double cdf = std::pow(1.0 - std::ldexp(1.0, -(static_cast<int>(i) + 1)), dn);
    if (cdf >= u) {
      k = i;
      break;
    }
  }
  sampled_depth_ = k;
}

bool SampledChannel::query_prefix(unsigned len) {
  expects(round_open_, "query_prefix before begin_round");
  expects(len <= config_.tree_height, "query_prefix: len exceeds H");
  const bool busy = (n_ > 0) && (len <= sampled_depth_);
  const std::uint64_t hint = !busy ? 0 : (len == 0 ? n_ : 2);
  if (obs::counters_enabled(obs_mode_)) chan_obs().probe_slots.add();
  account_slot(busy, round_query_bits_, hint);
  return busy;
}

void SampledChannel::begin_range_frame(const RangeFrameConfig& frame) {
  expects(frame.frame_size >= 1, "begin_range_frame: empty frame");
  range_open_ = true;
  range_query_bits_ = frame.query_bits;
  ledger_.reader_bits += frame.begin_bits;
  obs_mode_ = obs::level_byte();
  if (obs::counters_enabled(obs_mode_)) {
    obs::ledger_instruments().reader_bits.add(frame.begin_bits);
  }

  if (n_ == 0) {
    first_nonempty_ = frame.frame_size + 1;  // sentinel: never answered
    return;
  }
  // X = min of n iid uniform slots in [1, f]:  P(X > b) = ((f-b)/f)^n.
  const double u = unit_uniform(gen_);
  const double f = static_cast<double>(frame.frame_size);
  const double root = std::pow(u, 1.0 / static_cast<double>(n_));
  auto x = static_cast<std::uint64_t>(std::floor(f * (1.0 - root))) + 1;
  if (x < 1) x = 1;
  if (x > frame.frame_size) x = frame.frame_size;
  first_nonempty_ = x;
}

bool SampledChannel::query_range(std::uint64_t bound) {
  expects(range_open_, "query_range before begin_range_frame");
  const bool busy = bound >= first_nonempty_;
  if (obs::counters_enabled(obs_mode_)) chan_obs().frame_slots.add();
  account_slot(busy, range_query_bits_, busy ? 2 : 0);
  return busy;
}

const std::vector<SlotOutcome>& SampledChannel::run_frame(
    const FrameConfig& frame) {
  expects(frame.frame_size >= 1, "run_frame: empty frame");
  expects(frame.persistence > 0.0 && frame.persistence <= 1.0,
          "run_frame: persistence must be in (0, 1]");
  ledger_.reader_bits += frame.begin_bits;
  obs_mode_ = obs::level_byte();
  if (obs::counters_enabled(obs_mode_)) {
    obs::ledger_instruments().reader_bits.add(frame.begin_bits);
    chan_obs().frame_slots.add(frame.frame_size);
  }

  std::uint64_t remaining = n_;
  if (frame.persistence < 1.0 && remaining > 0) {
    std::binomial_distribution<std::uint64_t> participate(
        remaining, frame.persistence);
    remaining = participate(gen_);
  }

  // Exact multinomial occupancy via sequential binomial splitting: slot i
  // receives Binomial(remaining, p_i / mass_left) tags.
  frame_outcomes_.clear();
  frame_outcomes_.reserve(frame.frame_size);
  double mass_left = 1.0;
  for (std::uint64_t i = 1; i <= frame.frame_size; ++i) {
    double p_slot;
    if (frame.geometric) {
      p_slot = (i < frame.frame_size)
                   ? std::ldexp(1.0, -static_cast<int>(i))
                   : mass_left;  // tail mass collapses onto the last level
    } else {
      p_slot = 1.0 / static_cast<double>(frame.frame_size);
    }
    std::uint64_t count = 0;
    if (remaining > 0 && mass_left > 0.0) {
      const double q = std::min(1.0, p_slot / mass_left);
      std::binomial_distribution<std::uint64_t> draw(remaining, q);
      count = draw(gen_);
    }
    remaining -= count;
    mass_left -= p_slot;
    account_slot(count > 0, frame.poll_bits, count);
    frame_outcomes_.push_back(count == 0   ? SlotOutcome::kIdle
                              : count == 1 ? SlotOutcome::kSingleton
                                           : SlotOutcome::kCollision);
  }
  return frame_outcomes_;
}

}  // namespace pet::chan
