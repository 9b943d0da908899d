// In-process layer probes at fixed sizes, run in every traced run: the
// construction split (generate, hash, sort, the rest of a rebuild, a fresh
// 1e5-tag channel) and the frame codec.  Builds run serially, as they do
// inside sweep trials and petd registrations (both on pool workers).
#include <algorithm>

#include "channel/sorted_pet_channel.hpp"
#include "common/radix.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "runtime/parallel_exec.hpp"
#include "service/messages.hpp"
#include "stats.hpp"
#include "tags/population.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSweepTags = 50000;
constexpr std::size_t kChurnTags = 100000;
constexpr int kBuildRepeats = 100;
constexpr int kBatches = 50;
constexpr int kBatchOps = 1000;

template <typename F>
std::vector<double> timed_ns(int repeats, const char* span, F&& body) {
  std::vector<double> ns;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    {
      Span s(span, static_cast<std::uint64_t>(i));
      body(i);
    }
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return ns;
}

}  // namespace

void run_probe(const RunConfig& config, Report& report) {
  pet::runtime::configure_build_parallelism(1);
  const std::uint64_t seed = pet::rng::derive_seed(config.seed, 0x9e0be);

  pet::tags::TagPopulation churn_population;
  const double generate_ms =
      median(timed_ns(5, "tags.generate", [&](int i) {
        churn_population = pet::tags::TagPopulation::generate(
            kChurnTags, seed + static_cast<std::uint64_t>(i));
      })) / 1e6;

  const auto sweep_population =
      pet::tags::TagPopulation::generate(kSweepTags, seed);
  const std::vector<pet::TagId> ids(sweep_population.ids().begin(),
                               sweep_population.ids().end());
  // Hash, sort and a whole rebuild, interleaved so each iteration's
  // "rest of the rebuild" compares like with like.
  std::vector<std::uint64_t> codes, sorted, scratch;
  pet::chan::SortedPetChannel channel(ids);
  std::vector<double> hash_ns, sort_ns, rebuild_ns, other_ns;
  for (int i = 0; i < kBuildRepeats; ++i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
    const auto id = static_cast<std::uint64_t>(i);
    std::int64_t t0 = now_ns();
    {
      Span span("rng.hash", id);
      pet::rng::uniform_code_batch(pet::rng::HashKind::kMix64, s, ids, 32,
                                   codes);
    }
    hash_ns.push_back(static_cast<double>(now_ns() - t0));
    sorted = codes;
    t0 = now_ns();
    {
      Span span("common.sort", id);
      pet::radix_sort_u64(sorted, scratch, 32);
    }
    sort_ns.push_back(static_cast<double>(now_ns() - t0));
    if (!std::is_sorted(sorted.begin(), sorted.end())) {
      report.fail("probe: radix_sort_u64 left the codes unsorted");
    }
    t0 = now_ns();
    {
      Span span("channel.rebuild", id);
      channel.rebuild(s);
    }
    rebuild_ns.push_back(static_cast<double>(now_ns() - t0));
    other_ns.push_back(rebuild_ns.back() - hash_ns.back() - sort_ns.back());
  }
  const std::vector<pet::TagId> churn_ids(churn_population.ids().begin(),
                                     churn_population.ids().end());
  const double construct_ms =
      median(timed_ns(10, "channel.construct", [&](int i) {
        pet::chan::SortedPetChannelConfig cc;
        cc.manufacturing_seed = seed + static_cast<std::uint64_t>(i);
        const pet::chan::SortedPetChannel fresh(churn_ids, cc);
        if (fresh.tag_count() != kChurnTags) {
          report.fail("probe: constructed channel lost tags");
        }
      })) / 1e6;

  // Frame codec: an estimate request, encoded and decoded in batches.
  pet::svc::EstimateRequest request;
  request.population_id = 7;
  request.seed = seed;
  const pet::svc::Frame frame = pet::svc::make_request(
      pet::svc::CommandId::kEstimate, pet::svc::encode(request));
  std::vector<std::uint8_t> wire = pet::svc::encode_frame(frame);
  const double encode_ns =
      median(timed_ns(kBatches, "service.codec.encode", [&](int) {
        for (int k = 0; k < kBatchOps; ++k) {
          wire = pet::svc::encode_frame(frame);
        }
      })) / kBatchOps;
  pet::svc::Decoder decoder;
  pet::svc::Frame decoded;
  std::uint64_t decode_errors = 0;
  const double decode_ns =
      median(timed_ns(kBatches, "service.codec.decode", [&](int) {
        for (int k = 0; k < kBatchOps; ++k) {
          decoder.feed(wire);
          if (decoder.next(decoded) != pet::svc::DecodeStatus::kFrame) {
            ++decode_errors;
          }
        }
      })) / kBatchOps;
  if (decode_errors > 0 || decoded.payload != frame.payload) {
    report.fail("probe: frame codec round trip failed");
  }
  pet::runtime::configure_build_parallelism(2);

  const auto n = static_cast<double>(kSweepTags);
  report.set_layer({"tags.generate_ms", generate_ms, "ms", 5,
                    "TagPopulation::generate(1e5)"});
  report.set_layer({"rng.hash_ns_per_tag", median(hash_ns) / n, "ns",
                    kBuildRepeats, "uniform_code_batch, n=5e4"});
  report.set_layer({"common.sort_ns_per_tag", median(sort_ns) / n, "ns",
                    kBuildRepeats, "radix_sort_u64, n=5e4, H=32"});
  report.set_layer({"channel.rebuild_us", median(rebuild_ns) / 1e3, "us",
                    kBuildRepeats, "SortedPetChannel::rebuild, n=5e4"});
  report.set_layer({"channel.build_other_us", median(other_ns) / 1e3, "us",
                    kBuildRepeats,
                    "rebuild - hash - sort, per iteration (median)"});
  report.set_layer({"channel.construct_ms", construct_ms, "ms", 10,
                    "new SortedPetChannel over 1e5 tags"});
  report.set_layer({"service.codec_encode_ns", encode_ns, "ns",
                    kBatches * kBatchOps, "encode_frame(estimate request)"});
  report.set_layer({"service.codec_decode_ns", decode_ns, "ns",
                    kBatches * kBatchOps, "Decoder feed + next"});
}

}  // namespace perfbench
