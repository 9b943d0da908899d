// Workload `sweep`: the paper's Table 3 in-process (n = 5*10^4, H = 32,
// m in {8..1024}) on the deterministic trial runner at two threads.  Every
// trial re-keys its channel with a fresh manufacturing seed (rebuild, as the
// seed contract requires) and runs m estimating rounds; construction is
// most of a trial.  Touches tags/rng/common/channel/core/runtime only.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>

#include "channel/arena.hpp"
#include "core/estimator.hpp"
#include "petd_process.hpp"
#include "rng/prng.hpp"
#include "runtime/parallel_exec.hpp"
#include "runtime/trial_runner.hpp"
#include "stats.hpp"
#include "stats/accuracy.hpp"
#include "tags/population.hpp"
#include "trace.hpp"
#include "verify/benchjson.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTags = 50000;
constexpr std::array<std::uint64_t, 8> kRounds = {8,   16,  32,  64,
                                                  128, 256, 512, 1024};
/// Trials per m in one pass over the table (bench --quick's count, which
/// is also what the golden was made with).
constexpr std::uint64_t kTrialsPerPoint = 30;
constexpr unsigned kThreads = 2;
constexpr unsigned kSetupRepeats = 5;
/// Population seed and master seed of the checked-in golden.
constexpr std::uint64_t kGoldenPopulationSeed = 0xdecafULL;
constexpr std::uint64_t kGoldenSeed = 1;
const char* const kTableTitle =
    "Table 3: total time slots needed for PET (H = 32, n = 50000)";

struct Trial {
  double n_hat = 0.0;
  std::uint64_t slots = 0;
  double micros = 0.0;
  double cpu_micros = 0.0;  ///< the worker thread's CPU time
};

/// CPU clocks exclude time the hypervisor stole (paravirt steal
/// accounting), so they stay steady while other guests load the host.
double cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}
double thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

struct Point {
  pet::stats::TrialSummary summary{static_cast<double>(kTags)};
  double mean_slots = 0.0;
  double cpu_us = 0.0;  ///< summed over the point's trials
  std::uint64_t wrong_slots = 0;  ///< trials whose ledger != 5m
};

struct Sweep {
  std::vector<pet::TagId> ids;
  pet::core::PetEstimator estimator{pet::core::PetConfig{},
                                    pet::stats::AccuracyRequirement{0.05,
                                                                    0.01}};
  std::unique_ptr<pet::runtime::TrialRunner> runner;
  std::uint64_t next_id = 0;  ///< trial ids shared by a trial's spans
};

/// One table point: `runs` trials at m rounds, bit-identical to
/// bench/harness run_pet for the same (ids, seed).
Point run_point(Sweep& sweep, std::uint64_t m, std::uint64_t seed,
                std::vector<double>* trial_us) {
  const std::uint64_t base_id = sweep.next_id;
  sweep.next_id += kTrialsPerPoint;
  Point point;
  const auto trial = [&sweep, m, seed, base_id](std::uint64_t run) {
    const std::uint64_t id = base_id + run;
    const std::int64_t t0 = now_ns();
    const double cpu0 = thread_cpu_ns();
    Span span("runtime.trial", id);
    pet::chan::SortedPetChannelConfig channel_config;
    channel_config.manufacturing_seed = pet::rng::derive_seed(seed, 2 * run);
    pet::chan::SortedPetChannel* channel = nullptr;
    {
      Span rebuild("channel.rebuild", id);
      channel = &pet::chan::arena_sorted_pet_channel(sweep.ids,
                                                     channel_config);
    }
    pet::core::EstimateResult result;
    {
      Span rounds("core.rounds", id);
      result = sweep.estimator.estimate_with_rounds(
          *channel, m, pet::rng::derive_seed(seed, 2 * run + 1));
    }
    channel->flush_obs();
    return Trial{result.n_hat, result.ledger.total_slots(),
                 static_cast<double>(now_ns() - t0) / 1e3,
                 (thread_cpu_ns() - cpu0) / 1e3};
  };
  sweep.runner->run<Trial>(
      kTrialsPerPoint, trial, [&](std::uint64_t, Trial&& t) {
        point.summary.add(t.n_hat);
        point.mean_slots += static_cast<double>(t.slots) /
                            static_cast<double>(kTrialsPerPoint);
        if (t.slots != 5 * m) ++point.wrong_slots;
        point.cpu_us += t.cpu_micros;
        if (trial_us != nullptr) trial_us->push_back(t.micros);
      });
  return point;
}

void set_up(Sweep& sweep, std::uint64_t population_seed) {
  const auto population =
      pet::tags::TagPopulation::generate(kTags, population_seed);
  sweep.ids.assign(population.ids().begin(), population.ids().end());
  sweep.runner = std::make_unique<pet::runtime::TrialRunner>(kThreads, false);
  pet::runtime::configure_build_parallelism(kThreads);
}

std::string fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

/// Seed-1 table with 30 trials per point against the golden, under
/// benchdiff's default tolerances (pet::verify::diff_bench).  Returns the
/// mismatches.
std::vector<std::string> golden_mismatches(const std::string& golden_path) {
  Sweep golden_sweep;
  set_up(golden_sweep, kGoldenPopulationSeed);
  pet::verify::BenchArtifact candidate;
  candidate.target = "table3_pet_slots";
  candidate.threads = kThreads;
  for (const std::uint64_t m : kRounds) {
    const Point p = run_point(golden_sweep, m, kGoldenSeed + m, nullptr);
    candidate.rows.push_back(
        {{"table", kTableTitle},
         {"rounds m", std::to_string(m)},
         {"slots (analytic 5m)", std::to_string(5 * m)},
         {"slots (measured)", fixed(p.mean_slots, 1)},
         {"accuracy nhat/n", fixed(p.summary.accuracy(), 4)},
         {"normalized sigma", fixed(p.summary.normalized_deviation(), 4)}});
  }
  try {
    return pet::verify::diff_bench(pet::verify::load_bench_json(golden_path),
                                   candidate)
        .mismatches;
  } catch (const std::exception& error) {
    return {std::string("golden unreadable: ") + error.what()};
  }
}

}  // namespace

double self_peak_rss_mb() { return read_proc_status(::getpid()).vm_hwm_mb; }

void run_sweep(const RunConfig& config, Role role, double seconds,
               Report& report) {
  const bool primary = role == Role::kPrimary;
  Tracer& tracer = Tracer::instance();
  Sweep sweep;
  // Set-up: a population, the runner, and one pass over the table that
  // fills the per-thread channel arenas; repeated, and the median kept.
  const bool was_tracing = tracer.enabled();
  tracer.set_enabled(false);
  std::vector<double> setup_s, setup_cpu_s;
  for (unsigned rep = 0; rep < (primary ? kSetupRepeats : 1u); ++rep) {
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_ns();
    const std::uint64_t seed =
        pet::rng::derive_seed(config.seed, std::uint64_t{0x5eed0000} + rep);
    set_up(sweep, seed);
    for (const std::uint64_t m : kRounds) {
      (void)run_point(sweep, m, seed + m, nullptr);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_cpu_s.push_back((process_cpu_ns() - cpu0) / 1e9);
  }

  // Timed passes over the whole table.  In a traced primary run every
  // other pass is traced, so the pass rates give the tracing overhead.
  std::vector<double> rates_plain, rates_traced, trial_us, cpu_per_trial;
  std::vector<std::uint64_t> m_of_id(sweep.next_id, 0);
  double traced_wall_ns = 0.0;
  std::uint64_t trials = 0, wrong = 0;
  double slots = 0.0;
  const std::int64_t start = now_ns();
  for (std::uint64_t pass = 0;; ++pass) {
    if (static_cast<double>(now_ns() - start) / 1e9 >= seconds) break;
    const bool traced = was_tracing && (!primary || pass % 2 == 1);
    tracer.set_enabled(traced);
    const std::uint64_t pass_seed =
        pet::rng::derive_seed(config.seed, 0x1000 + pass);
    const std::int64_t t0 = now_ns();
    double pass_cpu_us = 0.0;
    for (const std::uint64_t m : kRounds) {
      m_of_id.resize(sweep.next_id + kTrialsPerPoint, m);
      const Point p = run_point(sweep, m, pass_seed + m, &trial_us);
      wrong += p.wrong_slots;
      slots += p.mean_slots * static_cast<double>(kTrialsPerPoint);
      pass_cpu_us += p.cpu_us;
    }
    const auto wall = static_cast<double>(now_ns() - t0);
    tracer.set_enabled(false);
    const auto pass_trials =
        static_cast<double>(kRounds.size() * kTrialsPerPoint);
    const double rate = pass_trials / (wall / 1e9);
    if (!traced) cpu_per_trial.push_back(pass_cpu_us / pass_trials);
    (traced ? rates_traced : rates_plain).push_back(rate);
    if (traced) traced_wall_ns += wall;
    trials += kRounds.size() * kTrialsPerPoint;
  }
  report.attempted += trials;
  report.failed += wrong;
  if (wrong > 0) {
    report.fail(std::to_string(wrong) + " sweep trials did not use 5m slots");
  }

  if (primary) {  // untraced: its trial ids would alias the passes' ids
    for (const std::string& mismatch : golden_mismatches(config.golden)) {
      report.fail("table3 golden: " + mismatch);
    }
  }
  tracer.set_enabled(was_tracing);

  const Distribution lat = summarize(trial_us);
  // Wall-clock figures: printed by untraced runs, per-layer in traced ones.
  const std::vector<Metric> wall = {
      {"e2e.setup_wall_s", median(setup_s), "s", setup_s.size(),
       "generate 5e4 tags, start the runner, one warm-up pass"},
      {"e2e.rate_per_s", median(rates_plain), "1/s", rates_plain.size(),
       "sweep_trials_per_s (median over table passes)"},
      {"e2e.p50_us", lat.p50, "us", lat.n, "sweep trial p50"},
      {"e2e.tail_us", lat.tail, "us", lat.n,
       "sweep trial p" + fixed(lat.tail_pct, 0)},
  };
  if (primary && !config.trace) {
    report.end_to_end = {
        {"setup_s", median(setup_cpu_s), "s", setup_cpu_s.size(),
         "process CPU: population, runner, warm-up pass (median)"},
        {"cpu_us_per_op", median(cpu_per_trial), "us", trials,
         "worker CPU per trial (median over passes)"},
        {"rss_mb", self_peak_rss_mb(), "MB", 1, "benchmark process VmHWM"},
    };
    report.info = wall;
    return;
  }
  if (!config.trace) return;

  // Per-layer metrics from the traced passes' spans.
  const std::vector<SpanRecord> spans = tracer.collect();
  double rounds_ns = 0.0, trial_ns = 0.0;
  std::uint64_t round_count = 0, rounds_spans = 0;
  for (const SpanRecord& s : spans) {
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    const std::string_view name = s.name;
    if (name == "core.rounds" && s.id < m_of_id.size() && m_of_id[s.id] > 0) {
      rounds_ns += d;
      round_count += m_of_id[s.id];
      ++rounds_spans;
    } else if (name == "runtime.trial") {
      trial_ns += d;
    }
  }
  const auto self = self_times(spans);
  const auto trial_self = self.find("runtime.trial");
  if (rounds_spans == 0 || trial_self == self.end() || traced_wall_ns <= 0) {
    report.fail("sweep: traced passes recorded no spans");
    return;
  }
  if (primary) {
    for (const Metric& m : wall) report.set_layer(m);
  }
  report.set_layer({"core.rounds_us",
                    rounds_ns / static_cast<double>(rounds_spans) / 1e3, "us",
                    rounds_spans, "mean estimate_with_rounds per trial"});
  report.set_layer({"core.round_ns",
                    rounds_ns / static_cast<double>(round_count), "ns",
                    round_count, "per estimating round"});
  report.set_layer({"core.slots_per_trial",
                    slots / static_cast<double>(trials), "count", trials,
                    "5 x mean m"});
  report.set_layer({"runtime.busy_share",
                    trial_ns / (traced_wall_ns * kThreads), "share",
                    trial_self->second.count,
                    "trial span time / (wall x threads)"});
  report.set_layer(
      {"runtime.trial_self_us",
       trial_self->second.self_ns /
           static_cast<double>(trial_self->second.count) / 1e3,
       "us", trial_self->second.count, "trial minus rebuild and rounds"});
  if (primary && !rates_plain.empty() && !rates_traced.empty()) {
    report.set_layer({"trace.overhead_share",
                      median(rates_plain) / median(rates_traced) - 1.0,
                      "share", rates_traced.size(),
                      "untraced/traced pass rate - 1"});
  }
}

}  // namespace perfbench
