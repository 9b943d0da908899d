// benchdiff — tolerance-aware comparator for BENCH_<target>.json artifacts.
//
// Compares a candidate artifact against a checked-in golden: `target` and
// every row must agree (numeric cells within --rtol/--atol, other cells
// byte-for-byte); `threads` and `wall_seconds` are ignored because rows are
// thread-invariant under the determinism contract while wall time is
// machine noise.
//
// A truncated artifact (a sweep drained by SIGINT/SIGTERM) never agrees.
//
// Exit status: 0 artifacts agree, 1 they differ, 2 usage/IO/parse error
// (including a tolerance that is not a finite number >= 0).
//
// Usage:
//   benchdiff GOLDEN.json CANDIDATE.json [--rtol=F] [--atol=F] [--quiet]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "verify/benchjson.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s GOLDEN.json CANDIDATE.json [--rtol=F] [--atol=F] "
               "[--quiet]\n",
               argv0);
  std::exit(code);
}

/// A tolerance is one finite number >= 0, since a NaN bound would silently
/// pass every numeric cell.
double tolerance(const pet::cli::Args& args, const char* key,
                 double fallback) {
  const double value = args.get(key, fallback);
  if (!std::isfinite(value) || value < 0.0) {
    throw pet::cli::UsageError(std::string("--") + key +
                               " needs a finite number >= 0");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  pet::verify::BenchDiffOptions options;
  bool quiet = false;
  try {
    const pet::cli::Args args(argc, argv);
    if (args.flag("help")) usage(argv[0], 0);
    paths = args.positionals();
    quiet = args.flag("quiet");
    options.rtol = tolerance(args, "rtol", options.rtol);
    options.atol = tolerance(args, "atol", options.atol);
    args.refuse_unread(2);
  } catch (const pet::cli::UsageError& error) {
    std::fprintf(stderr, "benchdiff: %s\n", error.what());
    usage(argv[0], 2);
  }
  if (paths.size() != 2) usage(argv[0], 2);

  try {
    const auto golden = pet::verify::load_bench_json(paths[0]);
    const auto candidate = pet::verify::load_bench_json(paths[1]);
    const auto diff = pet::verify::diff_bench(golden, candidate, options);
    if (diff.ok()) {
      if (!quiet) {
        std::printf("benchdiff: %s == %s (%zu rows, rtol %.3g, atol %.3g)\n",
                    paths[0].c_str(), paths[1].c_str(), golden.rows.size(),
                    options.rtol, options.atol);
      }
      return 0;
    }
    for (const auto& mismatch : diff.mismatches) {
      std::fprintf(stderr, "benchdiff: %s\n", mismatch.c_str());
    }
    std::fprintf(stderr, "benchdiff: %zu mismatch(es) between %s and %s\n",
                 diff.mismatches.size(), paths[0].c_str(), paths[1].c_str());
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "benchdiff: %s\n", err.what());
    return 2;
  }
}
