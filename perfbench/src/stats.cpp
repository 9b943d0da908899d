#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double supported_tail_percentile(std::size_t n) {
  static constexpr std::array<double, 6> kLadder = {99, 98, 95, 90, 80, 50};
  for (const double pct : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= kTailBeyond) return pct;
  }
  return 0.0;
}

Distribution summarize(std::vector<double> samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = percentile_sorted(samples, 50);
  d.tail_pct = supported_tail_percentile(d.n);
  d.tail = d.tail_pct > 0 ? percentile_sorted(samples, d.tail_pct) : d.p50;
  return d;
}

Windowed windowed(const std::vector<double>& at_s,
                  const std::vector<double>& value, double window_s,
                  double span_s) {
  Windowed out;
  out.windows = static_cast<std::size_t>(std::floor(span_s / window_s));
  if (out.windows == 0) return out;
  std::vector<std::vector<double>> bins(out.windows);
  for (std::size_t i = 0; i < at_s.size() && i < value.size(); ++i) {
    if (at_s[i] < 0.0) continue;
    const auto w = static_cast<std::size_t>(at_s[i] / window_s);
    if (w < bins.size()) bins[w].push_back(value[i]);
  }
  std::vector<double> rates, p50s;
  for (std::vector<double>& bin : bins) {
    rates.push_back(static_cast<double>(bin.size()) / window_s);
    if (!bin.empty()) p50s.push_back(median(std::move(bin)));
  }
  out.rate_per_s = median(std::move(rates));
  out.p50 = median(std::move(p50s));
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace perfbench
