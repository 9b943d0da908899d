// The benchmark's workloads.  README.md in this directory says why each
// exists and which layer each metric belongs to.
//
// Every workload runs either as the run's *primary* workload — for the
// full --seconds, reporting the end-to-end metrics (untraced run) or its
// own per-layer metrics plus the tracing overhead (traced run) — or, in a
// traced run of another workload, as a short traced *excerpt* that fills in
// the per-layer metrics only it exercises.  That way every traced run
// reports every per-layer metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "service/service.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string petd;      ///< petd binary
  std::string golden;    ///< bench/golden/BENCH_table3_pet_slots.json
  std::string work_dir;  ///< scratch inside the checkout: socket, traces
  unsigned petd_threads = 2;
  unsigned petd_shards = 2;

  /// Flags petd runs with (socket path aside).
  [[nodiscard]] std::vector<std::string> petd_flags() const;
  /// The in-process service configuration equal to petd's.
  [[nodiscard]] pet::svc::ServiceConfig service_config() const;
};

enum class Role { kPrimary, kExcerpt };

/// Paper sweep: table3 shape in-process on the trial runner.
void run_sweep(const RunConfig& config, Role role, double seconds,
               Report& report);

enum class ServeKind { kMiss, kHit, kChurn };

/// petd over its Unix socket.
void run_serve(const RunConfig& config, ServeKind kind, Role role,
               double seconds, Report& report);

/// In-process layer probes at fixed sizes (traced runs only).
void run_probe(const RunConfig& config, Report& report);

/// VmHWM of this process in MB.
[[nodiscard]] double self_peak_rss_mb();

}  // namespace perfbench
