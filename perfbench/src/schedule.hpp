// Seeded open-loop arrival schedules.
//
// An open loop sends each request when it is due, whether or not earlier
// replies have arrived, so a stall shows up as queueing delay on the
// requests behind it.  Arrivals form a Poisson process conditioned on its
// count: exactly round(rate * duration) due times, uniform over the window
// and sorted.  The fixed count keeps the offered load equal across seeds;
// the uniforms come from a SplitMix64 stream, so one (seed, rate, duration)
// always yields the same schedule, bit for bit, on any host.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Due times in seconds from the start of the window, ascending, all in
/// [0, duration_s).  rate_per_s and duration_s must be positive.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double duration_s);

}  // namespace perfbench
