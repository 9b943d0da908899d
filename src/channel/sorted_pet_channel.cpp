#include "channel/sorted_pet_channel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/ensure.hpp"
#include "common/parallel.hpp"
#include "common/radix.hpp"
#include "common/simd.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace pet::chan {

namespace {
const obs::ChannelInstruments& chan_obs() {
  static const obs::ChannelInstruments bundle("sorted");
  return bundle;
}

// Index width k = clamp(bit_width(n) - 3, 1, min(H, 16)): n / 2^k lies in
// [4, 8) once n >= 16, so a bucket holds a handful of codes, and the cap
// keeps the bounds array at most 2^16 + 1 entries.
unsigned prefix_bits_for(std::size_t n, unsigned height) {
  const int k = static_cast<int>(std::bit_width(n)) - 3;
  return static_cast<unsigned>(
      std::clamp(k, 1, static_cast<int>(std::min(height, 16u))));
}
}  // namespace

SortedPetChannel::SortedPetChannel(const std::vector<TagId>& tags,
                                   SortedPetChannelConfig config)
    : config_(config), tags_(&tags) {
  expects(config_.tree_height >= 1 &&
              config_.tree_height <= BitCode::kMaxWidth,
          "SortedPetChannel: tree height must be in [1, 64]");
  build_codes();
}

// Hash the preloaded codes into the scratch buffer (batched, SIMD lanes at
// the active pet::simd_tier()), then index them by their top k bits with
// one counting pass — through the registered build executor
// (runtime::configure_build_parallelism) when there is one.  Every probe
// answer is a count or a maximum over whole buckets, so it matches the
// ExactChannel reference whatever the order inside a bucket or the worker
// count (tests/fastpath_test.cpp, tests/channel_test.cpp,
// tests/parallel_build_test.cpp).  With counters on, the build is bracketed
// by the pet.build.* bundle: one clock pair per *build*, not per element.
void SortedPetChannel::build_codes() {
  using Clock = std::chrono::steady_clock;
  const bool timed = obs::counters_enabled();
  const auto t0 = timed ? Clock::now() : Clock::time_point{};
  rng::uniform_code_batch(config_.hash, config_.manufacturing_seed, *tags_,
                          config_.tree_height, hash_scratch_);
  const auto t1 = timed ? Clock::now() : Clock::time_point{};
  prefix_bits_ = prefix_bits_for(hash_scratch_.size(), config_.tree_height);
  PrefixPartitionStats stats;
  prefix_partition_u64(hash_scratch_, config_.tree_height, prefix_bits_,
                       code_values_, bucket_end_, partition_counts_,
                       build_parallel_for(), timed ? &stats : nullptr);
  if (!timed) return;
  const auto t2 = Clock::now();
  const auto us = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  const obs::BuildInstruments& bi = obs::build_instruments();
  bi.builds.add();
  bi.codes.add(code_values_.size());
  bi.hash_us.add(us(t1 - t0));
  bi.sort_us.add(us(t2 - t1));
  bi.simd_lanes.set(simd_lanes(simd_tier()));
  bi.partition_workers.set(stats.workers);
  if (stats.buckets_used > 0) {
    bi.partition_buckets.set(static_cast<double>(stats.buckets_used));
    const double mean = static_cast<double>(code_values_.size()) /
                        static_cast<double>(stats.buckets_used);
    bi.bucket_skew_milli.set(1000.0 * static_cast<double>(stats.max_bucket) /
                             mean);
  }
}

void SortedPetChannel::rebuild(std::uint64_t manufacturing_seed) {
  flush_obs();
  config_.manufacturing_seed = manufacturing_seed;
  // Closing the round also retires the depth cache: no probe runs until
  // begin_round, which resets it.
  round_open_ = false;
  build_codes();
}

SortedPetChannel::~SortedPetChannel() {
  // Publish the slots accounted since the last round boundary; without this
  // the final round of every estimate would be missing from the registry.
  try {
    flush_obs();
  } catch (...) {
    // Registration can throw (registry capacity); counts are best-effort
    // here and a throwing destructor would be worse than a short snapshot.
  }
}

// This channel is the large-sweep hot path, so unlike the other back ends
// it records nothing per slot: query_prefix only mutates the ledger (which
// it does anyway), and the obs mirror is brought up to date by diffing the
// ledger against the last published state at round boundaries.  Totals are
// identical to per-slot recording -- the mirror is a sum either way -- and
// the disabled path through query_prefix carries no obs code at all (the
// <= 2% overhead budget, bench/micro_ops BM_PetRoundObsOff).  The trace
// logical clock consequently advances at round granularity on this backend.
void SortedPetChannel::flush_obs() {
  if (!obs::counters_enabled()) {
    // Forget anything accounted while disabled so a later enable does not
    // retroactively publish slots from the disabled era.
    obs_published_ = ledger_;
    return;
  }
  const std::uint64_t idle = ledger_.idle_slots - obs_published_.idle_slots;
  const std::uint64_t single =
      ledger_.singleton_slots - obs_published_.singleton_slots;
  const std::uint64_t coll =
      ledger_.collision_slots - obs_published_.collision_slots;
  const std::uint64_t slots = idle + single + coll;
  if (slots != 0 || ledger_.reader_bits != obs_published_.reader_bits ||
      ledger_.retry_slots != obs_published_.retry_slots) {
    const obs::LedgerInstruments& li = obs::ledger_instruments();
    li.idle_slots.add(idle);
    li.singleton_slots.add(single);
    li.collision_slots.add(coll);
    li.retry_slots.add(ledger_.retry_slots - obs_published_.retry_slots);
    li.reader_bits.add(ledger_.reader_bits - obs_published_.reader_bits);
    li.tag_bits.add(ledger_.tag_bits - obs_published_.tag_bits);
    chan_obs().probe_slots.add(slots);
    chan_obs().busy_slots.add(single + coll);
    if (obs::full_enabled()) obs::advance_trace_slots(slots);
  }
  obs_published_ = ledger_;
}

void SortedPetChannel::begin_round(const RoundConfig& round) {
  expects(round.path.width() == config_.tree_height,
          "begin_round: path width must equal the tree height H");
  expects(!round.tags_rehash,
          "SortedPetChannel supports preloaded-code mode only (Algorithm 4); "
          "use ExactChannel or DeviceChannel for per-round rehashing");
  path_value_ = round.path.value();
  path_bucket_ =
      static_cast<std::size_t>(path_value_ >> (config_.tree_height -
                                               prefix_bits_));
  query_bits_ = round.query_bits;
  round_open_ = true;
  depth_valid_ = false;
  flush_obs();
  ledger_.reader_bits += round.begin_bits;
  if (obs::counters_enabled()) chan_obs().rounds.add();
}

// Codes in the path's bucket share its top k bits, so when that bucket is
// non-empty the deepest busy prefix is the longest LCP inside it.  When it
// is empty, every code differs from the path within the top k bits, where
// only the bucket index matters: the maximum is then attained in the
// nearest non-empty bucket below or above (for any query, the LCP maximum
// over an ordered set is attained next to the query's insertion point),
// and any code of each will do — the last code before the bucket and the
// first one after it.
void SortedPetChannel::ensure_depth() {
  if (depth_valid_) return;
  const unsigned height = config_.tree_height;
  const auto lcp = [height](std::uint64_t a, std::uint64_t b) noexcept {
    const std::uint64_t x = a ^ b;
    if (x == 0) return height;
    // Codes occupy the low H bits; string bit 0 is value bit H-1.
    return static_cast<unsigned>(std::countl_zero(x)) -
           (BitCode::kMaxWidth - height);
  };
  const std::uint32_t first = bucket_end_[path_bucket_];
  const std::uint32_t last = bucket_end_[path_bucket_ + 1];
  unsigned depth = 0;
  if (first != last) {
    for (std::uint32_t i = first; i < last; ++i) {
      depth = std::max(depth, lcp(code_values_[i], path_value_));
    }
  } else {
    if (first > 0) depth = lcp(code_values_[first - 1], path_value_);
    if (last < code_values_.size()) {
      depth = std::max(depth, lcp(code_values_[last], path_value_));
    }
  }
  depth_ = depth;
  depth_valid_ = true;
}

// Codes under the path's length-`len` prefix.  A prefix no longer than k
// covers a run of whole buckets, so its population is one difference of two
// bounds (len == 0 spans every bucket); a longer prefix lies inside the
// path's bucket, which is scanned.
std::size_t SortedPetChannel::count_in_range(unsigned len) const noexcept {
  if (len <= prefix_bits_) {
    const unsigned span = prefix_bits_ - len;
    const std::size_t first = (path_bucket_ >> span) << span;
    return bucket_end_[first + (std::size_t{1} << span)] -
           bucket_end_[first];
  }
  const unsigned shift = config_.tree_height - len;
  const std::uint64_t prefix = path_value_ >> shift;
  std::size_t count = 0;
  for (std::uint32_t i = bucket_end_[path_bucket_];
       i < bucket_end_[path_bucket_ + 1]; ++i) {
    if ((code_values_[i] >> shift) == prefix) ++count;
  }
  return count;
}

// The busy verdict comes from the round depth (busy iff len <= d; with
// n == 0, d == 0 and the count is 0), so idle probes are answered without
// touching the index.  The depth is cached per round because the robust
// vote re-reads idle probes.
bool SortedPetChannel::query_prefix(unsigned len) {
  expects(round_open_, "query_prefix before begin_round");
  expects(len <= config_.tree_height, "query_prefix: len exceeds H");
  ensure_depth();
  const std::size_t responders = len <= depth_ ? count_in_range(len) : 0;
  account_probe(responders);
  return responders > 0;
}

void SortedPetChannel::account_probe(std::size_t responders) noexcept {
  if (responders == 0) {
    ++ledger_.idle_slots;
  } else if (responders == 1) {
    ++ledger_.singleton_slots;
  } else {
    ++ledger_.collision_slots;
  }
  ledger_.reader_bits += query_bits_;
  ledger_.tag_bits += responders;
  ledger_.airtime_us += config_.timing.slot_us();
}

}  // namespace pet::chan
