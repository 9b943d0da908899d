// petverify — run the statistical conformance harness.
//
// Checks every statistical promise the library makes (theory identities,
// goodness-of-fit of all channel back ends against the exact depth law,
// estimator CI calibration) at fixed seeds and exits non-zero if any check
// fails.  docs/testing.md documents the methodology.
//
// Usage:
//   petverify [--quick] [--seed=N] [--threads=N] [--quiet] [--alpha=F]
//             [--filter=SUBSTR] [--inject-phi-bias=F] [--list]
//
// --inject-phi-bias arms the test-only estimator mutation hook
// (core::testing::set_phi_bias_for_tests); the mutation smoke test uses it
// to prove the calibration checks detect a real bias.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "core/theory.hpp"
#include "runtime/trial_runner.hpp"
#include "verify/conformance.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s [--quick] [--seed=N] [--threads=N] [--quiet] [--alpha=F]\n"
      "          [--filter=SUBSTR] [--inject-phi-bias=F] [--list]\n",
      argv0);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  pet::verify::ConformanceOptions options;
  unsigned threads = 0;  // 0 = hardware concurrency
  bool quiet = false;
  bool list = false;
  double phi_bias = 1.0;
  try {
    const pet::cli::Args args(argc, argv);
    if (args.flag("help")) usage(argv[0], 0);
    options.quick = args.flag("quick");
    quiet = args.flag("quiet");
    list = args.flag("list");
    options.seed = args.get("seed", options.seed);
    threads = args.get("threads", threads);
    options.family_alpha = args.get("alpha", options.family_alpha);
    options.filter = args.get("filter", options.filter);
    phi_bias = args.get("inject-phi-bias", phi_bias);
    args.refuse_unread();
    if (options.family_alpha <= 0.0 || options.family_alpha >= 1.0) {
      throw pet::cli::UsageError("--alpha must be in (0, 1)");
    }
    if (phi_bias <= 0.0) {
      throw pet::cli::UsageError("--inject-phi-bias must be positive");
    }
  } catch (const pet::cli::UsageError& error) {
    std::fprintf(stderr, "petverify: %s\n", error.what());
    usage(argv[0], 2);
  }

  if (list) {
    for (const auto& name : pet::verify::conformance_check_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  try {
    pet::core::testing::ScopedPhiBias bias(phi_bias);
    if (phi_bias != 1.0 && !quiet) {
      std::printf("petverify: MUTATION ARMED, phi bias %.4f — the harness "
                  "is expected to fail\n",
                  phi_bias);
    }

    pet::runtime::TrialRunner runner(threads, false);
    const auto report = pet::verify::run_conformance(options, runner);

    for (const auto& check : report.checks) {
      if (quiet && check.passed) continue;
      std::printf("[%s] %-28s %s\n", check.passed ? "PASS" : "FAIL",
                  check.name.c_str(), check.detail.c_str());
    }
    std::printf("petverify: %zu/%zu checks passed (seed %llu, %s, %u "
                "threads)\n",
                report.checks.size() - report.failures(),
                report.checks.size(),
                static_cast<unsigned long long>(options.seed),
                options.quick ? "quick" : "full", runner.thread_count());
    if (report.checks.empty()) {
      std::fprintf(stderr, "petverify: filter '%s' matched no checks\n",
                   options.filter.c_str());
      return 2;
    }
    return report.all_passed() ? 0 : 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "petverify: fatal: %s\n", err.what());
    return 2;
  }
}
