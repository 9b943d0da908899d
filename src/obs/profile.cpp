#include "obs/profile.hpp"

#include <ctime>
#include <utility>

namespace pet::obs {

double PhaseProfiler::process_cpu_seconds() noexcept {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

PhaseProfiler::Scope::Scope(PhaseProfiler& profiler, std::string name)
    : profiler_(profiler),
      name_(std::move(name)),
      wall_begin_(std::chrono::steady_clock::now()),
      cpu_begin_(process_cpu_seconds()) {}

PhaseProfiler::Scope::~Scope() {
  Phase phase;
  phase.name = std::move(name_);
  phase.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin_)
          .count();
  phase.cpu_seconds = process_cpu_seconds() - cpu_begin_;
  phase.slots = slots_;
  profiler_.record(std::move(phase));
}

void PhaseProfiler::record(Phase phase) {
  for (Phase& existing : phases_) {
    if (existing.name == phase.name) {
      existing.wall_seconds += phase.wall_seconds;
      existing.cpu_seconds += phase.cpu_seconds;
      existing.slots += phase.slots;
      return;
    }
  }
  phases_.push_back(std::move(phase));
}

}  // namespace pet::obs
