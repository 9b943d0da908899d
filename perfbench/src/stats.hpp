// Order statistics for the benchmark's reports.
//
// Timings are reported as a median and a tail: the highest percentile of a
// fixed ladder (99, 98, 95, 90, 80, 50) that still leaves at least
// kTailBeyond samples above it, so a tail is never read off a handful of
// points.  Percentiles use the nearest-rank definition.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave above itself.
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank percentile (0 < pct <= 100) of an ascending-sorted sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double pct);

/// Highest ladder percentile with >= kTailBeyond samples beyond it for a
/// sample of size n; 0 when even the median is unsupported.
[[nodiscard]] double supported_tail_percentile(std::size_t n);

struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< supported_tail_percentile(n)
};

/// Summarize a sample (copied and sorted).  An empty sample yields n == 0.
[[nodiscard]] Distribution summarize(std::vector<double> samples);

/// Per-window view of a timed sample: the span [0, span_s) is cut into
/// whole windows of window_s; each window yields its count / window_s and
/// its p50, and the medians over windows are reported.  A short burst of
/// interference then moves one window, not the result.
struct Windowed {
  std::size_t windows = 0;
  double rate_per_s = 0.0;  ///< median over windows
  double p50 = 0.0;         ///< median over windows of the window p50
};

/// `at_s[i]` is when sample `value[i]` was taken, in seconds from the start.
/// Windows with no samples count as rate 0 and take no part in the p50.
[[nodiscard]] Windowed windowed(const std::vector<double>& at_s,
                                const std::vector<double>& value,
                                double window_s, double span_s);

/// Median of an unsorted sample (mean of the middle pair); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
