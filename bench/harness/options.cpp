#include "harness/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>

#include "common/cli.hpp"
#include "common/ensure.hpp"
#include "obs/metrics.hpp"
#include "runtime/cancel.hpp"
#include "runtime/parallel_exec.hpp"
#include "runtime/trial_runner.hpp"

namespace pet::bench {

namespace {

void print_options(std::FILE* out) {
  std::fprintf(out,
               "options:\n"
               "  --runs=N     repetitions per data point (default 300)\n"
               "  --quick      use 30 runs (smoke test)\n"
               "  --csv        CSV output\n"
               "  --seed=S     master seed (default 1)\n"
               "  --threads=T  trial-runner threads (default: hardware "
               "concurrency)\n"
               "  --quiet      no stderr progress meter\n"
               "  --json=PATH  result artifact path (default "
               "BENCH_<target>.json)\n"
               "  --obs=LEVEL  observability level off|counters|full "
               "(default counters)\n");
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 const std::string& description) {
  BenchOptions options;
  try {
    const cli::Args args(argc, argv);
    if (args.flag("help")) {
      std::printf("%s\n\n", description.c_str());
      print_options(stdout);
      std::exit(0);
    }
    options.runs = args.get("runs", args.flag("quick") ? std::uint64_t{30}
                                                       : options.runs);
    if (options.runs == 0) throw cli::UsageError("--runs must be positive");
    options.csv = args.flag("csv");
    options.seed = args.get("seed", options.seed);
    options.threads = args.get("threads", options.threads);
    options.quiet = args.flag("quiet");
    options.json = args.get("json", "");
    if (options.json.empty() && !args.all("json").empty()) {
      throw cli::UsageError("--json needs a path");
    }
    options.obs_level = obs::parse_level(args.get("obs", "counters"));
    args.refuse_unread();
  } catch (const PreconditionError& error) {  // cli::UsageError included
    std::fprintf(stderr, "%s: %s\n",
                 std::filesystem::path(argv[0]).filename().c_str(),
                 error.what());
    print_options(stderr);
    std::exit(2);
  }
  runtime::global_runner().configure(options.threads, !options.quiet);
  // Intra-trial parallel prefix partition shares the same --threads budget.
  // Builds issued from pool workers stay serial (cross-trial parallelism
  // already owns the cores), so this only engages for foreground builds.
  runtime::configure_build_parallelism(options.threads);
  // Graceful SIGINT/SIGTERM: the first signal trips the shutdown latch, the
  // trial runner folds the trials already finished, and BenchSession flushes
  // a partial artifact marked "truncated": true.  A second signal force-
  // exits (see runtime/cancel.cpp).
  runtime::install_shutdown_handlers();
  runtime::global_runner().set_cancel_token(
      runtime::CancelToken::linked_to_shutdown());
  obs::set_level(options.obs_level);
  // Fresh counts for this harness run: registrations from other benches in
  // the same process (gtest-style multi-runs) must not leak into the
  // artifact's metrics section.
  obs::MetricsRegistry::instance().reset();
  return options;
}

}  // namespace pet::bench
