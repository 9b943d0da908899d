#include "harness/report.hpp"

#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trial_runner.hpp"

namespace pet::bench {

BenchSession::BenchSession(const BenchOptions& options, std::string target)
    : report_(target, runtime::global_runner().thread_count()),
      path_(options.json.empty() ? "BENCH_" + target + ".json"
                                 : options.json),
      quiet_(options.quiet),
      start_(std::chrono::steady_clock::now()) {}

BenchSession::~BenchSession() { finish(); }

void BenchSession::finish() noexcept {
  if (finished_) return;
  finished_ = true;
  report_.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count());
  // A drain requested mid-sweep (SIGINT/SIGTERM tripping the shutdown
  // latch) still flushes whatever rows completed, marked so downstream
  // tooling never mistakes the partial sweep for a full one.
  if (runtime::shutdown_requested()) {
    report_.set_truncated(true);
  }
  if (obs::counters_enabled()) {
    auto& runner = runtime::global_runner();
    const runtime::ThreadPool::Stats stats = runner.pool_stats();
    obs::PoolSample pool;
    pool.threads = runner.thread_count();
    pool.submitted = stats.submitted;
    pool.stolen = stats.stolen;
    pool.max_queue_depth = stats.max_queue_depth;
    pool.worker_tasks = stats.worker_tasks;
    report_.set_metrics_json(
        obs::metrics_json(obs::MetricsRegistry::instance().snapshot(), {},
                          std::optional<obs::PoolSample>(std::move(pool))));
  }
  try {
    report_.write(path_);
    if (!quiet_) {
      std::fprintf(stderr, "wrote %s (%zu rows%s)\n", path_.c_str(),
                   report_.row_count(),
                   report_.truncated() ? ", truncated by shutdown" : "");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "BENCH json not written: %s\n", error.what());
  }
}

}  // namespace pet::bench
