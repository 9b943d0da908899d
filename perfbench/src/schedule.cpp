#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rng/prng.hpp"

namespace perfbench {

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate and duration must "
                                "be positive");
  }
  pet::rng::SplitMix64 gen(seed);
  std::vector<double> due(
      static_cast<std::size_t>(std::llround(rate_per_s * duration_s)));
  for (double& t : due) {
    // 53 random bits -> [0, 1).
    t = static_cast<double>(gen() >> 11) * 0x1.0p-53 * duration_s;
  }
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace perfbench
