// petsim — command-line front end to the PET RFID estimation library.
//
//   petsim plan     --eps=0.05 --delta=0.01
//   petsim estimate --protocol=pet --n=50000 --eps=0.05 --delta=0.01
//                   [--search=binary|strict|linear] [--loss=0.1]
//                   [--readers=4 --overlap=0.3] [--seed=1]
//                   [--runs=500 --threads=8 --quiet]
//                   [--mac=ideal|gen2 --capture=0.6]
//   petsim identify --protocol=dfsa|treewalk --n=20000 [--seed=1]
//   petsim monitor  --n=10000 --steps=40 [--seed=1]
//
// --runs > 1 replays that many independent trials on the pet::runtime
// parallel trial engine (--threads workers, default hardware concurrency)
// and reports the aggregate; results are bit-identical for any --threads
// (docs/runtime.md).  Everything is simulated on the slotted-MAC
// substrate; see README.md.
//
// Observability (docs/observability.md): --obs=off|counters|full selects
// the level, --metrics-out=FILE writes the pet.obs.v1 metrics document,
// --trace-jsonl=FILE streams span/event records.  Requesting an output
// upgrades the level to the one that produces it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/arena.hpp"
#include "channel/device_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/cli.hpp"
#include "common/ensure.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"
#include "core/monitor.hpp"
#include "core/planner.hpp"
#include "core/robust_estimator.hpp"
#include "core/sketch.hpp"
#include "gen2/channel.hpp"
#include "multireader/controller.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "protocols/ezb.hpp"
#include "protocols/fneb.hpp"
#include "protocols/identification.hpp"
#include "protocols/lof.hpp"
#include "protocols/upe.hpp"
#include "rng/prng.hpp"
#include "runtime/cancel.hpp"
#include "runtime/parallel_exec.hpp"
#include "runtime/trial_runner.hpp"
#include "sim/gen2_timing.hpp"
#include "sim/trace.hpp"
#include "stats/accuracy.hpp"
#include "tags/mobility.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  petsim plan     --eps=E --delta=D [--n=N]\n"
      "  petsim estimate --protocol=pet|fneb|lof|upe|ezb --n=N --eps=E "
      "--delta=D\n"
      "                  [--search=binary|strict|linear]\n"
      "                  [--fusion=paper|bias-corrected|median-of-means]\n"
      "                  [--mac=ideal|gen2] [--capture=P]\n"
      "                  [--loss=P] [--robust]\n"
      "                  [--readers=K --overlap=P] [--trace=FILE "
      "--trace-format=csv|jsonl] [--seed=S]\n"
      "                  [--runs=R --threads=T --quiet]\n"
      "  petsim identify --protocol=dfsa|treewalk --n=N [--seed=S]\n"
      "  petsim monitor  --n=N --steps=T [--seed=S]\n"
      "  petsim sketch   --n-a=N --n-b=M --shared=K [--rounds=R]\n"
      "\n"
      "observability (every command):\n"
      "  --obs=off|counters|full   metrics level (default off)\n"
      "  --metrics-out=FILE        write pet.obs.v1 metrics JSON "
      "(implies counters)\n"
      "  --trace-jsonl=FILE        write span/event JSONL (implies full)\n");
  return 2;
}

/// Observability wiring for one petsim invocation: resolves the level from
/// --obs / --metrics-out / --trace-jsonl, installs the trace writer and the
/// trial hook, and writes the metrics document after the command returns.
struct ObsSession {
  std::string metrics_path;
  std::string trace_path;
  std::ofstream trace_file;
  std::unique_ptr<obs::TraceWriter> writer;
  obs::PhaseProfiler profiler;
  obs::Level level = obs::Level::kOff;

  /// Reads --obs / --metrics-out / --trace-jsonl; opens nothing.
  void configure(const cli::Args& args) {
    metrics_path = args.get("metrics-out", "");
    trace_path = args.get("trace-jsonl", "");
    level = obs::parse_level(args.get("obs", "off"));
    // Requesting an output implies the level that produces it.
    if (!metrics_path.empty() && level == obs::Level::kOff) {
      level = obs::Level::kCounters;
    }
    if (!trace_path.empty()) level = obs::Level::kFull;
  }

  /// Returns 0, or 2 on an unwritable trace path.
  int start() {
    obs::set_level(level);
    if (level == obs::Level::kOff) return 0;

    obs::MetricsRegistry::instance().reset();
    if (level == obs::Level::kFull) {
      // Workers pin the logical trial coordinate so trace records from a
      // --runs sweep are attributable.
      runtime::set_trial_begin_hook(&obs::set_trace_trial);
      if (!trace_path.empty()) {
        trace_file.open(trace_path);
        if (!trace_file) {
          std::fprintf(stderr, "petsim: cannot open trace file '%s'\n",
                       trace_path.c_str());
          return 2;
        }
        writer = std::make_unique<obs::TraceWriter>(trace_file);
        obs::set_trace_writer(writer.get());
      }
    }
    return 0;
  }

  /// Simulated slots recorded so far (for phase slots/second).
  [[nodiscard]] static std::uint64_t recorded_slots() {
    const obs::Snapshot snapshot = obs::MetricsRegistry::instance().snapshot();
    return snapshot.counter("chan.ledger.idle_slots") +
           snapshot.counter("chan.ledger.singleton_slots") +
           snapshot.counter("chan.ledger.collision_slots") +
           snapshot.counter("chan.ledger.retry_slots");
  }

  void finish() {
    obs::set_trace_writer(nullptr);
    if (!obs::counters_enabled() || metrics_path.empty()) return;
    auto& runner = runtime::global_runner();
    const runtime::ThreadPool::Stats stats = runner.pool_stats();
    obs::PoolSample pool;
    pool.threads = runner.thread_count();
    pool.submitted = stats.submitted;
    pool.stolen = stats.stolen;
    pool.max_queue_depth = stats.max_queue_depth;
    pool.worker_tasks = stats.worker_tasks;
    try {
      obs::write_metrics_file(metrics_path, profiler.phases(), pool);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "petsim: metrics not written: %s\n", error.what());
    }
  }
};

double gen2_seconds(const sim::SlotLedger& ledger, std::uint64_t rounds) {
  const sim::Gen2LinkConfig link;
  return sim::gen2_session_us(link, ledger.singleton_slots +
                                        ledger.collision_slots,
                              ledger.idle_slots, 32, 1, rounds, 32) /
         1e6;
}

/// --eps and --delta, checked as the accuracy contract every command plans
/// from (Eq. (20)).
stats::AccuracyRequirement read_requirement(const cli::Args& args) {
  const stats::AccuracyRequirement req{args.get("eps", 0.05),
                                       args.get("delta", 0.01)};
  req.validate();
  return req;
}

int cmd_plan(const stats::AccuracyRequirement& req, double n) {
  const core::PetPlan pet = core::plan(core::PetConfig{}, req, n);
  const proto::FnebEstimator fneb(proto::FnebConfig{}, req);
  const proto::LofEstimator lof(proto::LofConfig{}, req);

  std::printf("accuracy contract: |nhat - n| <= %.1f%% n with probability "
              ">= %.1f%%\n\n",
              req.epsilon * 100, (1 - req.delta) * 100);
  std::printf("%-8s %10s %14s %14s %16s\n", "protocol", "rounds",
              "slots/round", "total slots", "tag memory bits");
  std::printf("%-8s %10llu %14u %14llu %16llu\n", "PET",
              static_cast<unsigned long long>(pet.rounds),
              pet.slots_per_round,
              static_cast<unsigned long long>(pet.total_slots),
              static_cast<unsigned long long>(pet.tag_memory_bits));
  const std::uint64_t fneb_spr =
      static_cast<std::uint64_t>(std::log2(16.0 * n)) + 1;
  std::printf("%-8s %10llu %14llu %14llu %16llu\n", "FNEB",
              static_cast<unsigned long long>(fneb.planned_rounds()),
              static_cast<unsigned long long>(fneb_spr),
              static_cast<unsigned long long>(fneb.planned_rounds() *
                                              fneb_spr),
              static_cast<unsigned long long>(32 * fneb.planned_rounds()));
  std::printf("%-8s %10llu %14u %14llu %16llu\n", "LoF",
              static_cast<unsigned long long>(lof.planned_rounds()), 32u,
              static_cast<unsigned long long>(32 * lof.planned_rounds()),
              static_cast<unsigned long long>(32 * lof.planned_rounds()));
  return 0;
}

/// --runs=R > 1: replay R independent trials of the plain single-reader
/// protocol on the parallel trial engine and report the aggregate.  Seed
/// streams mirror bench/harness/experiment.cpp, so a petsim sweep and the
/// bench harness agree estimate-for-estimate.
int cmd_estimate_many(const std::string& protocol, std::uint64_t n,
                      const stats::AccuracyRequirement& req,
                      const core::PetConfig& pet_config, std::uint64_t runs,
                      std::uint64_t seed) {
  stats::TrialSummary summary(static_cast<double>(n));
  double total_slots = 0.0;

  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);
  const std::vector<TagId> ids(pop.ids().begin(), pop.ids().end());
  const auto start = std::chrono::steady_clock::now();
  auto& runner = runtime::global_runner();

  // The runner reports how many trials actually folded: a SIGINT/SIGTERM
  // drain stops at a trial boundary and the aggregates below rescale to the
  // prefix that completed.
  std::uint64_t folded = 0;

  auto fold = [&](std::uint64_t, core::EstimateResult&& result) {
    summary.add(result.n_hat);
    total_slots += static_cast<double>(result.ledger.total_slots());
  };

  if (protocol == "pet") {
    const core::PetEstimator estimator(pet_config, req);
    const std::uint64_t m = estimator.planned_rounds();
    folded = runner.run<core::EstimateResult>(
        runs,
        [&](std::uint64_t run) {
          chan::SortedPetChannelConfig channel_config;
          channel_config.tree_height = pet_config.tree_height;
          channel_config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
          // Per-thread arena: rebuild() re-keys the retained channel, bit-
          // identical to a per-trial construction.
          chan::SortedPetChannel& channel =
              chan::arena_sorted_pet_channel(ids, channel_config);
          auto result = estimator.estimate_with_rounds(
              channel, m, rng::derive_seed(seed, 2 * run + 1));
          channel.flush_obs();
          return result;
        },
        fold, "PET trials");
  } else {
    // The rehash-per-round baselines all run on the sampled channel; only
    // the estimator (and its historical seed stride) differs.
    auto sweep = [&](std::uint64_t stride, const auto& estimator) {
      folded = runner.run<core::EstimateResult>(
          runs,
          [&](std::uint64_t run) {
            chan::SampledChannel& channel = chan::arena_sampled_channel(
                n, rng::derive_seed(seed, stride * run));
            return estimator.estimate(
                channel, rng::derive_seed(seed, stride * run + 1));
          },
          fold, protocol + " trials");
    };
    if (protocol == "fneb") {
      sweep(3, proto::FnebEstimator(proto::FnebConfig{}, req));
    } else if (protocol == "lof") {
      sweep(5, proto::LofEstimator(proto::LofConfig{}, req));
    } else if (protocol == "upe") {
      proto::UpeConfig config;
      config.expected_n = static_cast<double>(n);
      sweep(7, proto::UpeEstimator(config, req));
    } else {  // ezb; read_estimate refused any other protocol
      sweep(11, proto::EzbEstimator(proto::EzbConfig{}, req));
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (folded == 0) {
    std::printf("%s sweep    : interrupted before any trial folded\n",
                protocol.c_str());
    return 130;
  }
  std::printf("%s sweep    : %llu trials, %u threads\n", protocol.c_str(),
              static_cast<unsigned long long>(folded), runner.thread_count());
  if (folded < runs) {
    std::printf("truncated    : %llu of %llu trials folded (shutdown)\n",
                static_cast<unsigned long long>(folded),
                static_cast<unsigned long long>(runs));
  }
  std::printf("mean nhat    : %.0f   (true %llu, accuracy %.4f)\n",
              summary.accuracy() * static_cast<double>(n),
              static_cast<unsigned long long>(n), summary.accuracy());
  std::printf("normalized sigma: %.4f\n", summary.normalized_deviation());
  std::printf("within eps   : %.3f (contract needs >= %.3f)\n",
              summary.fraction_within(req.epsilon), 1.0 - req.delta);
  std::printf("mean slots   : %.1f per estimate\n",
              total_slots / static_cast<double>(folded));
  std::printf("wall time    : %.3f s (%.1f trials/s)\n", wall,
              static_cast<double>(folded) / wall);
  return 0;
}

/// --mac=gen2 --runs=R: the same sweep over the measured EPC C1G2 MAC
/// (gen2::Gen2PrefixChannel — Select+Query probes, real command bits,
/// optional capture/loss impairments).  Seed strides mirror
/// cmd_estimate_many (derive(seed, 2 run) manufacturing, derive(seed,
/// 2 run + 1) estimation) plus the robustness-bench impairment stream
/// derive(seed, 500 + run).
int cmd_estimate_many_gen2(const std::string& protocol, std::uint64_t n,
                           const stats::AccuracyRequirement& req,
                           std::uint64_t runs, std::uint64_t seed,
                           double capture, double loss) {
  stats::TrialSummary summary(static_cast<double>(n));
  double total_slots = 0.0;
  double total_airtime_us = 0.0;

  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);
  const std::vector<TagId> ids(pop.ids().begin(), pop.ids().end());
  const auto start = std::chrono::steady_clock::now();
  auto& runner = runtime::global_runner();
  std::uint64_t folded = 0;

  auto fold = [&](std::uint64_t, core::EstimateResult&& result) {
    summary.add(result.n_hat);
    total_slots += static_cast<double>(result.ledger.total_slots());
    total_airtime_us += static_cast<double>(result.ledger.airtime_us);
  };
  auto sweep = [&](const auto& estimator) {
    folded = runner.run<core::EstimateResult>(
        runs,
        [&](std::uint64_t run) {
          gen2::Gen2ChannelConfig config;
          config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
          config.impairments.capture.capture_prob = capture;
          config.impairments.reply_loss_prob = loss;
          config.impairments.seed = rng::derive_seed(seed, 500 + run);
          gen2::Gen2PrefixChannel channel(ids, config);
          return estimator.estimate(channel,
                                    rng::derive_seed(seed, 2 * run + 1));
        },
        fold, protocol + " gen2 trials");
  };

  if (protocol == "pet") {
    sweep(core::PetEstimator(core::PetConfig{}, req));
  } else if (protocol == "fneb") {
    sweep(proto::FnebEstimator(proto::FnebConfig{}, req));
  } else if (protocol == "lof") {
    sweep(proto::LofEstimator(proto::LofConfig{}, req));
  } else if (protocol == "upe") {
    proto::UpeConfig config;
    config.expected_n = static_cast<double>(n);
    sweep(proto::UpeEstimator(config, req));
  } else {  // ezb
    sweep(proto::EzbEstimator(proto::EzbConfig{}, req));
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (folded == 0) {
    std::printf("%s gen2 sweep: interrupted before any trial folded\n",
                protocol.c_str());
    return 130;
  }
  std::printf("%s gen2 sweep: %llu trials, %u threads (capture %.2f, "
              "loss %.2f)\n",
              protocol.c_str(), static_cast<unsigned long long>(folded),
              runner.thread_count(), capture, loss);
  if (folded < runs) {
    std::printf("truncated    : %llu of %llu trials folded (shutdown)\n",
                static_cast<unsigned long long>(folded),
                static_cast<unsigned long long>(runs));
  }
  std::printf("mean nhat    : %.0f   (true %llu, accuracy %.4f)\n",
              summary.accuracy() * static_cast<double>(n),
              static_cast<unsigned long long>(n), summary.accuracy());
  std::printf("normalized sigma: %.4f\n", summary.normalized_deviation());
  std::printf("within eps   : %.3f (contract needs >= %.3f)\n",
              summary.fraction_within(req.epsilon), 1.0 - req.delta);
  std::printf("mean slots   : %.1f per estimate\n",
              total_slots / static_cast<double>(folded));
  std::printf("mean airtime : %.3f s per estimate (Tari 6.25us Miller-4)\n",
              total_airtime_us / static_cast<double>(folded) / 1e6);
  std::printf("wall time    : %.3f s (%.1f trials/s)\n", wall,
              static_cast<double>(folded) / wall);
  return 0;
}

/// --robust --runs=R: the hardened pipeline on the device-level channel
/// with optional iid reply loss.  Seed streams mirror
/// bench/robustness_bench.cpp (derive(seed, run) manufacturing,
/// derive(seed, 500 + run) impairments, derive(seed, 1000 + run)
/// estimation), so a petsim sweep reproduces the bench trial-for-trial.
int cmd_estimate_robust_many(std::uint64_t n,
                             const stats::AccuracyRequirement& req,
                             const core::RobustPetConfig& config,
                             std::uint64_t runs, std::uint64_t seed,
                             double loss) {
  stats::TrialSummary summary(static_cast<double>(n));
  double total_slots = 0.0;
  std::uint64_t rereads = 0;
  std::uint64_t at_risk = 0;

  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);
  const core::RobustPetEstimator estimator(config, req);
  const auto start = std::chrono::steady_clock::now();
  auto& runner = runtime::global_runner();

  const std::uint64_t folded = runner.run<core::RobustEstimateResult>(
      runs,
      [&](std::uint64_t run) {
        chan::DeviceChannelConfig device;
        device.manufacturing_seed = rng::derive_seed(seed, run);
        device.impairments.seed = rng::derive_seed(seed, 500 + run);
        device.impairments.reply_loss_prob = loss;
        chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet,
                                    device);
        return estimator.estimate(channel, rng::derive_seed(seed, 1000 + run));
      },
      [&](std::uint64_t, core::RobustEstimateResult&& result) {
        summary.add(result.n_hat());
        total_slots += static_cast<double>(result.base.ledger.total_slots());
        rereads += result.reread_slots;
        if (result.diagnostic.contract_at_risk()) ++at_risk;
      },
      "robust PET trials");

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (folded == 0) {
    std::printf("robust sweep : interrupted before any trial folded\n");
    return 130;
  }
  std::printf("robust sweep : %llu trials, %u threads, loss %.3f\n",
              static_cast<unsigned long long>(folded), runner.thread_count(),
              loss);
  if (folded < runs) {
    std::printf("truncated    : %llu of %llu trials folded (shutdown)\n",
                static_cast<unsigned long long>(folded),
                static_cast<unsigned long long>(runs));
  }
  std::printf("mean nhat    : %.0f   (true %llu, accuracy %.4f)\n",
              summary.accuracy() * static_cast<double>(n),
              static_cast<unsigned long long>(n), summary.accuracy());
  std::printf("within eps   : %.3f (contract needs >= %.3f)\n",
              summary.fraction_within(req.epsilon), 1.0 - req.delta);
  std::printf("mean slots   : %.1f per estimate\n",
              total_slots / static_cast<double>(folded));
  std::printf("rereads/run  : %.1f\n",
              static_cast<double>(rereads) / static_cast<double>(folded));
  std::printf("at-risk frac : %.3f\n",
              static_cast<double>(at_risk) / static_cast<double>(folded));
  std::printf("wall time    : %.3f s (%.1f trials/s)\n", wall,
              static_cast<double>(folded) / wall);
  return 0;
}

/// Every value `petsim estimate` reads, taken before any work starts.
struct EstimateOptions {
  std::string protocol;
  std::uint64_t n = 0;
  stats::AccuracyRequirement req;
  std::uint64_t seed = 0;
  std::uint64_t runs = 0;
  unsigned threads = 0;
  bool quiet = false;
  bool gen2_mac = false;
  double capture = 0.0;
  double loss = 0.0;
  core::PetConfig pet;  ///< --search and --fusion
  bool robust = false;
  std::uint64_t readers = 1;
  double overlap = 0.0;
  std::string trace_path;
  sim::TraceFormat trace_format = sim::TraceFormat::kCsv;
};

EstimateOptions read_estimate(const cli::Args& args) {
  EstimateOptions o;
  o.protocol =
      args.choice("protocol", "pet", {"pet", "fneb", "lof", "upe", "ezb"});
  o.n = args.get("n", std::uint64_t{50000});
  o.req = read_requirement(args);
  o.seed = args.get("seed", std::uint64_t{1});
  o.runs = args.get("runs", std::uint64_t{1});
  o.threads = args.get("threads", 0u);
  o.quiet = args.flag("quiet");
  // --mac=gen2 swaps the ideal perfect-detection channels for the measured
  // EPC C1G2 MAC (docs/gen2.md); --capture then sets the capture-effect
  // probability on that link.
  o.gen2_mac = args.choice("mac", "ideal", {"ideal", "gen2"}) == "gen2";
  o.capture = args.get("capture", 0.0);
  o.loss = args.get("loss", 0.0);
  const std::string search =
      args.choice("search", "binary", {"binary", "strict", "linear"});
  if (search == "strict") o.pet.search = core::SearchMode::kBinaryStrict;
  if (search == "linear") o.pet.search = core::SearchMode::kLinear;
  const std::string fusion = args.choice(
      "fusion", "paper", {"paper", "bias-corrected", "median-of-means"});
  if (fusion == "bias-corrected") {
    o.pet.fusion = core::FusionRule::kBiasCorrected;
  } else if (fusion == "median-of-means") {
    o.pet.fusion = core::FusionRule::kMedianOfMeans;
  }
  o.robust = args.flag("robust");
  o.readers = args.get("readers", std::uint64_t{1});
  o.overlap = args.get("overlap", 0.0);
  o.trace_path = args.get("trace", "");
  if (args.choice("trace-format", "csv", {"csv", "jsonl"}) == "jsonl") {
    o.trace_format = sim::TraceFormat::kJsonl;
  }
  if (o.protocol != "pet") return o;
  if (o.gen2_mac && (o.robust || o.readers > 1 || !o.trace_path.empty())) {
    throw cli::UsageError(
        "--mac=gen2 supports only the plain single-reader estimate");
  }
  if (o.runs > 1 && !o.gen2_mac && !o.robust &&
      (o.loss > 0.0 || o.readers > 1 || !o.trace_path.empty())) {
    throw cli::UsageError(
        "--runs > 1 supports only the plain single-reader channel (add "
        "--robust for lossy sweeps)");
  }
  return o;
}

int cmd_estimate(const EstimateOptions& o) {
  runtime::global_runner().configure(o.threads, !o.quiet && o.runs > 1);
  // The intra-trial parallel prefix partition follows the same --threads
  // budget; pool-worker builds clamp to serial (runtime/parallel_exec.hpp).
  runtime::configure_build_parallelism(o.threads);

  core::EstimateResult result;
  std::uint64_t rounds = 0;

  if (o.protocol == "pet") {
    if (o.runs > 1) {
      if (o.gen2_mac) {
        return cmd_estimate_many_gen2(o.protocol, o.n, o.req, o.runs, o.seed,
                                      o.capture, o.loss);
      }
      if (o.robust) {
        core::RobustPetConfig robust_config;
        robust_config.base = o.pet;
        return cmd_estimate_robust_many(o.n, o.req, robust_config, o.runs,
                                        o.seed, o.loss);
      }
      return cmd_estimate_many(o.protocol, o.n, o.req, o.pet, o.runs, o.seed);
    }
    const core::PetEstimator estimator(o.pet, o.req);
    rounds = estimator.planned_rounds();

    const auto pop = tags::TagPopulation::generate(o.n, o.seed);

    if (o.robust) {
      // Hardened single run: device-level channel (optionally lossy),
      // voting probes, health diagnostic.
      core::RobustPetConfig robust_config;
      robust_config.base = o.pet;
      const core::RobustPetEstimator hardened(robust_config, o.req);
      chan::DeviceChannelConfig device;
      device.impairments.reply_loss_prob = o.loss;
      chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
      const core::RobustEstimateResult robust_result =
          hardened.estimate(channel, o.seed);
      result = robust_result.base;
      std::printf("robust PET   : %.0f   (true %llu)\n", robust_result.n_hat(),
                  static_cast<unsigned long long>(o.n));
      std::printf("%.0f%% interval: [%.0f, %.0f] (widening %.2fx)\n",
                  (1 - o.req.delta) * 100, robust_result.interval.lo,
                  robust_result.interval.hi,
                  robust_result.diagnostic.widening);
      std::printf("health       : %s (KS %.4f vs %.4f)\n",
                  std::string(to_string(robust_result.diagnostic.health))
                      .c_str(),
                  robust_result.diagnostic.ks_distance,
                  robust_result.diagnostic.ks_threshold);
      std::printf("voting       : %llu re-read slots, %llu probes "
                  "overturned%s\n",
                  static_cast<unsigned long long>(robust_result.reread_slots),
                  static_cast<unsigned long long>(
                      robust_result.overturned_probes),
                  robust_result.retry_budget_exhausted
                      ? " (budget exhausted)"
                      : "");
    } else if (o.gen2_mac) {
      gen2::Gen2ChannelConfig gen2_config;
      gen2_config.manufacturing_seed = rng::derive_seed(o.seed, 0);
      gen2_config.impairments.capture.capture_prob = o.capture;
      gen2_config.impairments.reply_loss_prob = o.loss;
      gen2_config.impairments.seed = rng::derive_seed(o.seed, 2);
      gen2::Gen2PrefixChannel channel(
          {pop.ids().begin(), pop.ids().end()}, gen2_config);
      result = estimator.estimate(channel, o.seed);
    } else if (o.loss > 0.0 || !o.trace_path.empty()) {
      // Lossy links and per-slot tracing need the device-level channel.
      chan::DeviceChannelConfig device;
      device.impairments.reply_loss_prob = o.loss;
      chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
      std::ofstream trace_file;
      std::unique_ptr<sim::TraceSink> sink;
      if (!o.trace_path.empty()) {
        trace_file.open(o.trace_path);
        if (!trace_file) {
          std::fprintf(stderr, "petsim: cannot open trace file '%s'\n",
                       o.trace_path.c_str());
          return 2;
        }
        sink = std::make_unique<sim::TraceSink>(trace_file, o.trace_format);
        channel.set_observer(sink->observer());
      }
      result = estimator.estimate(channel, o.seed);
      if (sink) {
        std::printf("trace        : %llu slots written to %s\n",
                    static_cast<unsigned long long>(sink->rows_written()),
                    o.trace_path.c_str());
      }
    } else if (o.readers > 1) {
      tags::ZoneMap zones(o.readers, o.seed);
      zones.scatter(pop);
      zones.add_overlap(o.overlap);
      std::vector<std::vector<TagId>> audible;  // outlives the channels
      for (std::size_t z = 0; z < o.readers; ++z) {
        audible.push_back(zones.audible_in(z));
      }
      std::vector<std::unique_ptr<chan::PrefixChannel>> zone_channels;
      for (const std::vector<TagId>& ids : audible) {
        zone_channels.push_back(std::make_unique<chan::SortedPetChannel>(ids));
      }
      multi::MultiReaderController controller(std::move(zone_channels));
      result = estimator.estimate(controller, o.seed);
    } else {
      const std::vector<TagId> ids(pop.ids().begin(), pop.ids().end());
      chan::SortedPetChannel channel(ids);
      result = estimator.estimate(channel, o.seed);
    }
    if (!o.robust) {
      // The robust branch already printed its own (widened) interval.
      const auto ci = core::confidence_interval(result, o.req.delta);
      std::printf("PET estimate : %.0f   (true %llu)\n", result.n_hat,
                  static_cast<unsigned long long>(o.n));
      std::printf("%.0f%% interval: [%.0f, %.0f]\n", (1 - o.req.delta) * 100,
                  ci.lo, ci.hi);
    }
  } else {
    if (o.runs > 1) {
      if (o.gen2_mac) {
        return cmd_estimate_many_gen2(o.protocol, o.n, o.req, o.runs, o.seed,
                                      o.capture, o.loss);
      }
      return cmd_estimate_many(o.protocol, o.n, o.req, core::PetConfig{},
                               o.runs, o.seed);
    }
    // Single run: the ideal occupancy-sampled channel, or the measured MAC
    // (Gen2PrefixChannel implements every baseline's channel contract).
    std::optional<chan::SampledChannel> sampled;
    std::optional<gen2::Gen2PrefixChannel> over_gen2;
    if (o.gen2_mac) {
      const auto pop = tags::TagPopulation::generate(o.n, o.seed);
      gen2::Gen2ChannelConfig gen2_config;
      gen2_config.manufacturing_seed = rng::derive_seed(o.seed, 0);
      gen2_config.impairments.capture.capture_prob = o.capture;
      gen2_config.impairments.reply_loss_prob = o.loss;
      gen2_config.impairments.seed = rng::derive_seed(o.seed, 2);
      over_gen2.emplace(
          std::vector<TagId>(pop.ids().begin(), pop.ids().end()),
          gen2_config);
    } else {
      sampled.emplace(o.n, o.seed);
    }
    auto run_estimator = [&](const auto& estimator) {
      return o.gen2_mac ? estimator.estimate(*over_gen2, o.seed)
                        : estimator.estimate(*sampled, o.seed);
    };
    if (o.protocol == "fneb") {
      const proto::FnebEstimator estimator(proto::FnebConfig{}, o.req);
      rounds = estimator.planned_rounds();
      result = run_estimator(estimator);
    } else if (o.protocol == "lof") {
      const proto::LofEstimator estimator(proto::LofConfig{}, o.req);
      rounds = estimator.planned_rounds();
      result = run_estimator(estimator);
    } else if (o.protocol == "upe") {
      proto::UpeConfig config;
      config.expected_n = static_cast<double>(o.n);
      const proto::UpeEstimator estimator(config, o.req);
      rounds = estimator.planned_rounds();
      result = run_estimator(estimator);
    } else {  // ezb
      const proto::EzbEstimator estimator(proto::EzbConfig{}, o.req);
      result = run_estimator(estimator);
      rounds = result.rounds;
    }
    std::printf("%s estimate : %.0f   (true %llu)\n", o.protocol.c_str(),
                result.n_hat, static_cast<unsigned long long>(o.n));
  }

  std::printf("cost         : %llu slots over %llu rounds "
              "(%llu idle / %llu busy)\n",
              static_cast<unsigned long long>(result.ledger.total_slots()),
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(result.ledger.idle_slots),
              static_cast<unsigned long long>(
                  result.ledger.singleton_slots +
                  result.ledger.collision_slots));
  // Under --mac=gen2 the ledger carries the airtime actually accumulated by
  // the measured MAC; otherwise convert the slot mix analytically.
  std::printf("gen2 airtime : %.2f s (Tari 6.25 us, Miller-4%s)\n",
              o.gen2_mac ? static_cast<double>(result.ledger.airtime_us) / 1e6
                         : gen2_seconds(result.ledger, rounds),
              o.gen2_mac ? ", measured" : "");
  return 0;
}

int cmd_identify(const std::string& protocol, std::uint64_t n,
                 std::uint64_t seed) {
  proto::IdentificationResult result;
  if (protocol == "dfsa") {
    proto::DfsaConfig config;
    config.max_frame_size =
        std::max<std::uint64_t>(config.max_frame_size, 2 * n);
    result = proto::identify_dfsa_sampled(n, config, seed);
  } else {
    result = proto::identify_treewalk_sampled(n, proto::TreeWalkConfig{},
                                              seed);
  }
  std::printf("%s identified %llu / %llu tags in %llu slots\n",
              protocol.c_str(),
              static_cast<unsigned long long>(result.identified),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(result.ledger.total_slots()));
  return 0;
}

/// Two sites with n_a and n_b tags of which `shared` are stocked at both
/// (transfers in flight, say); headquarters merges the sketches.
int cmd_sketch(std::uint64_t n_a, std::uint64_t n_b, std::uint64_t shared,
               std::uint64_t rounds, std::uint64_t seed) {
  const auto universe =
      tags::TagPopulation::generate(n_a + n_b - shared, seed);
  const auto ids = universe.ids();
  const std::vector<TagId> site_a(ids.begin(), ids.begin() +
                                                   static_cast<std::ptrdiff_t>(n_a));
  const std::vector<TagId> site_b(ids.begin() +
                                      static_cast<std::ptrdiff_t>(n_a - shared),
                                  ids.end());

  const core::PetConfig config;
  chan::SortedPetChannel ca(site_a);
  chan::SortedPetChannel cb(site_b);
  const auto sa = core::PetSketch::take(ca, config, rounds, seed + 7);
  const auto sb = core::PetSketch::take(cb, config, rounds, seed + 7);
  const auto fleet = core::PetSketch::merge_union(sa, sb);

  std::printf("site A       : %.0f  (true %llu)\n", sa.estimate(),
              static_cast<unsigned long long>(n_a));
  std::printf("site B       : %.0f  (true %llu)\n", sb.estimate(),
              static_cast<unsigned long long>(n_b));
  std::printf("union        : %.0f  (true %llu)\n", fleet.estimate(),
              static_cast<unsigned long long>(n_a + n_b - shared));
  std::printf("intersection : %.0f  (true %llu)\n",
              core::PetSketch::estimate_intersection(sa, sb),
              static_cast<unsigned long long>(shared));
  std::printf("wire size    : %llu bytes per sketch\n",
              static_cast<unsigned long long>(sa.serialize().size()));
  return 0;
}

int cmd_monitor(std::uint64_t n0, std::uint64_t steps, std::uint64_t seed) {
  auto pop = tags::TagPopulation::generate(n0, seed);
  core::StreamingMonitor monitor(core::MonitorConfig{}, seed);

  std::printf("%6s %8s %10s %s\n", "tick", "truth", "estimate", "event");
  for (std::uint64_t t = 0; t < steps; ++t) {
    // A population step every 10 ticks: +30% joins, then a 40% departure.
    if (t == steps / 3) pop.join_fresh(n0 * 3 / 10, seed + t);
    if (t == 2 * steps / 3) pop.leave_random(pop.size() * 2 / 5, seed + t);

    const std::vector<TagId> ids(pop.ids().begin(), pop.ids().end());
    chan::SortedPetChannel channel(ids);
    bool changed = false;
    for (int burst = 0; burst < 16; ++burst) {
      changed = monitor.tick(channel) || changed;
    }
    const auto estimate = monitor.estimate();
    std::printf("%6llu %8zu %10.0f %s\n",
                static_cast<unsigned long long>(t), pop.size(),
                estimate.value_or(0.0), changed ? "CHANGE DETECTED" : "");
  }
  std::printf("changes detected: %llu\n",
              static_cast<unsigned long long>(monitor.changes_detected()));
  return 0;
}

/// Reads and checks every value `command` takes, returning the work to
/// run; throws before any work starts.  Returns nullptr for an unknown
/// command.
std::function<int()> prepare(const std::string& command,
                             const cli::Args& args) {
  if (command == "plan") {
    const stats::AccuracyRequirement req = read_requirement(args);
    const double n = args.get("n", 50000.0);
    return [req, n] { return cmd_plan(req, n); };
  }
  if (command == "estimate") {
    return [options = read_estimate(args)] { return cmd_estimate(options); };
  }
  if (command == "identify") {
    const std::string protocol =
        args.choice("protocol", "dfsa", {"dfsa", "treewalk"});
    const auto n = args.get("n", std::uint64_t{20000});
    const auto seed = args.get("seed", std::uint64_t{1});
    return [=] { return cmd_identify(protocol, n, seed); };
  }
  if (command == "monitor") {
    const auto n = args.get("n", std::uint64_t{10000});
    const auto steps = args.get("steps", std::uint64_t{40});
    const auto seed = args.get("seed", std::uint64_t{1});
    return [=] { return cmd_monitor(n, steps, seed); };
  }
  if (command == "sketch") {
    const auto n_a = args.get("n-a", std::uint64_t{20000});
    const auto n_b = args.get("n-b", std::uint64_t{15000});
    const auto shared = args.get("shared", std::uint64_t{5000});
    const auto rounds = args.get("rounds", std::uint64_t{2000});
    const auto seed = args.get("seed", std::uint64_t{1});
    return [=] { return cmd_sketch(n_a, n_b, shared, rounds, seed); };
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::function<int()> run;
  ObsSession obs_session;
  try {
    const cli::Args args(argc, argv);
    if (args.positionals().empty() || args.flag("help")) return usage();
    command = args.positionals().front();
    run = prepare(command, args);
    if (!run) return usage();
    obs_session.configure(args);
    args.refuse_unread(1);
  } catch (const PreconditionError& error) {  // cli::UsageError included
    std::fprintf(stderr, "petsim: %s\n", error.what());
    return usage();
  }

  // Long sweeps drain gracefully: the first SIGINT/SIGTERM stops the trial
  // runner at a trial boundary and the aggregates rescale to the completed
  // prefix; a second signal force-exits.
  runtime::install_shutdown_handlers();
  runtime::global_runner().set_cancel_token(
      runtime::CancelToken::linked_to_shutdown());

  if (const int rc = obs_session.start(); rc != 0) return rc;

  int rc = 0;
  {
    // One profile phase per command; slots/second comes from the slot
    // counters the run recorded (zero when obs is off — the phase then
    // reports wall/CPU only).
    obs::PhaseProfiler::Scope scope(obs_session.profiler, command);
    rc = run();
    if (obs::counters_enabled()) scope.add_slots(ObsSession::recorded_slots());
  }
  obs_session.finish();
  return rc;
}
