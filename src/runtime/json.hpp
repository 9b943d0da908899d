// Minimal JSON emission for the bench result artifacts (no external
// dependency; the repo builds against nothing but gtest/google-benchmark).
//
// BenchReport implements the stable BENCH_<target>.json schema tracked
// across PRs (docs/runtime.md):
//
//   {
//     "target": "fig5_time_comparison",
//     "threads": 8,
//     "wall_seconds": 12.345,
//     "rows": [ {"table": "...", "<column>": "<cell>", ...}, ... ]
//   }
//
// Row cells are the already-formatted table strings, so the "rows" array
// is byte-identical for any thread count — only "threads"/"wall_seconds"
// describe the run itself.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pet::runtime {

/// JSON string escaping: quote, backslash and control characters.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Render a double as a JSON value token.  JSON has no NaN/Infinity, so
/// non-finite inputs emit "null" (snprintf's "nan"/"inf" would corrupt the
/// whole artifact); finite values use the fixed precision given (matching
/// the historical %.*f rendering of wall_seconds).
[[nodiscard]] std::string json_number(double value, int precision = 3);

class BenchReport {
 public:
  BenchReport(std::string target, unsigned threads);

  /// Append one row; keys come from `columns`, values from `cells`
  /// (same length, checked).  `table` names the table the row belongs to.
  void add_row(const std::string& table,
               const std::vector<std::string>& columns,
               const std::vector<std::string>& cells);

  void set_wall_seconds(double seconds) noexcept { wall_seconds_ = seconds; }

  /// Mark the artifact as cut short (SIGINT/SIGTERM drain): a top-level
  /// "truncated": true member is emitted so downstream tooling — benchdiff,
  /// the repro gate — knows the rows are a partial sweep, not a regression.
  /// Untruncated artifacts stay byte-identical to the historical schema.
  void set_truncated(bool truncated) noexcept { truncated_ = truncated; }
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Attach a pre-rendered obs metrics document (pet.obs.v1); emitted as a
  /// top-level "metrics" member.  Empty string omits the member, keeping
  /// artifacts from obs-off runs byte-identical to the historical schema.
  void set_metrics_json(std::string metrics) {
    metrics_json_ = std::move(metrics);
  }

  [[nodiscard]] const std::string& target() const noexcept { return target_; }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// The "rows" array alone — the thread-count-invariant part of the
  /// schema; runtime_test asserts byte-identity of exactly this string.
  [[nodiscard]] std::string rows_json() const;

  /// The full document.
  [[nodiscard]] std::string to_json() const;

  /// Serialize to `path`; throws std::runtime_error when the file cannot
  /// be written.
  void write(const std::string& path) const;

 private:
  using Row = std::vector<std::pair<std::string, std::string>>;

  std::string target_;
  unsigned threads_;
  double wall_seconds_ = 0.0;
  bool truncated_ = false;
  std::string metrics_json_;
  std::vector<Row> rows_;
};

}  // namespace pet::runtime
