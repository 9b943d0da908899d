// The benchmark's result: metrics, operation counts, correctness problems,
// and the one-line JSON object the run ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;  ///< name in BENCHMARK.json
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
  std::string alias;          ///< the workload-specific name, if any
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Ungated figures an untraced run prints beside its end-to-end metrics.
  std::vector<Metric> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + refused + mismatched operations
  std::vector<std::string> problems;  ///< failed correctness gates

  void fail(std::string problem) { problems.push_back(std::move(problem)); }
  [[nodiscard]] bool correct() const noexcept {
    return problems.empty() && failed == 0 && attempted > 0;
  }

  /// Add or replace a per-layer metric.
  void set_layer(Metric metric);

  /// Human-readable table (one metric per line, with sample counts).
  [[nodiscard]] std::string describe(bool trace) const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} with the
  /// end-to-end metrics (trace == false) or the per-layer ones.
  [[nodiscard]] std::string json(bool trace) const;
};

/// Shortest round-trip decimal form of a finite double ("null" otherwise).
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
