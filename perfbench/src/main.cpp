// perfbench: runs one workload and ends its standard output with one
// JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --petd=PATH --golden=PATH --work-dir=DIR
//             --petd-threads=N --petd-shards=N
//
// --trace=0 reports the end-to-end metrics; --trace=1 records spans and
// reports the per-layer metrics (README.md lists both sets).  Exit status
// is 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fingerprint.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<std::string> RunConfig::petd_flags() const {
  return {"--threads=" + std::to_string(petd_threads),
          "--shards=" + std::to_string(petd_shards), "--quiet"};
}

pet::svc::ServiceConfig RunConfig::service_config() const {
  pet::svc::ServiceConfig service;
  service.worker_threads = petd_threads;
  service.shards = petd_shards;
  service.cache_entries = 1024;  // petd's default
  return service;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Excerpt length of the other workloads in a traced run.
constexpr double kExcerptSeconds = 1.0;

const std::vector<std::string> kWorkloads = {"sweep", "serve_miss",
                                             "serve_hit", "serve_churn"};

const std::vector<std::string> kEndToEnd = {"setup_s", "cpu_us_per_op",
                                            "rss_mb"};

const std::vector<std::string> kPerLayer = {
    "tags.generate_ms",       "rng.hash_ns_per_tag",
    "common.sort_ns_per_tag", "channel.rebuild_us",
    "channel.build_other_us", "channel.construct_ms",
    "core.rounds_us",         "core.round_ns",
    "core.robust_us",         "core.slots_per_trial",
    "runtime.busy_share",     "runtime.trial_self_us",
    "service.codec_encode_ns", "service.codec_decode_ns",
    "service.handle_hit_us",  "service.handoff_us",
    "service.cache_hit_ratio", "service.handle_miss_us",
    "service.overhead_us",    "service.queue_us_p50",
    "service.queue_us_tail",  "service.handle_us_p50",
    "service.handle_us_tail", "service.register_ms",
    "service.shed",           "service.degraded",
    "service.resyncs",        "petd.rtt_ping_us",
    "petd.transport_us",      "petd.connect_us",
    "petd.vsz_mb",            "petd.threads",
    "churn.reader_p50_us",    "loadgen.late_us_tail",
    "loadgen.slo_share",      "e2e.setup_wall_s",
    "e2e.rate_per_s",         "e2e.p50_us",
    "e2e.tail_us",            "trace.overhead_share",
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=sweep|serve_miss|serve_hit|"
               "serve_churn --seed=N --seconds=S --trace=0|1 --petd=PATH "
               "--golden=PATH --work-dir=DIR [--petd-threads=N] "
               "[--petd-shards=N]\n");
  return 2;
}

void run(const RunConfig& config, const std::string& workload, Role role,
         double seconds, Report& report) {
  if (workload == "sweep") {
    run_sweep(config, role, seconds, report);
  } else if (workload == "serve_miss") {
    run_serve(config, ServeKind::kMiss, role, seconds, report);
  } else if (workload == "serve_hit") {
    run_serve(config, ServeKind::kHit, role, seconds, report);
  } else {
    run_serve(config, ServeKind::kChurn, role, seconds, report);
  }
}

/// (busy + steal, steal) jiffies of all CPUs so far, from /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return {user + nice + system + irq + softirq + steal, steal};
}

/// Order the metrics as listed and flag any missing or non-finite one.
void finalize(std::vector<Metric>& metrics,
              const std::vector<std::string>& names, Report& report) {
  std::vector<Metric> ordered;
  for (const std::string& name : names) {
    bool found = false;
    for (const Metric& m : metrics) {
      if (m.name != name) continue;
      found = true;
      if (!std::isfinite(m.value)) report.fail("metric " + name + " is not finite");
      ordered.push_back(m);
    }
    if (!found) report.fail("metric " + name + " was not measured");
  }
  metrics = std::move(ordered);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.rfind(flag, 0) == 0 ? argv[i] + flag.size() : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--workload="))) {
      config.workload = v;
    } else if ((v = value("--seed="))) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = value("--seconds="))) {
      config.seconds = std::strtod(v, nullptr);
    } else if ((v = value("--trace="))) {
      config.trace = std::string_view(v) == "1";
    } else if ((v = value("--petd="))) {
      config.petd = v;
    } else if ((v = value("--golden="))) {
      config.golden = v;
    } else if ((v = value("--work-dir="))) {
      config.work_dir = v;
    } else if ((v = value("--petd-threads="))) {
      config.petd_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if ((v = value("--petd-shards="))) {
      config.petd_shards = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return usage();
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), config.workload) ==
          kWorkloads.end() ||
      !(config.seconds > 0) || config.petd.empty() || config.golden.empty() ||
      config.work_dir.empty() || config.petd_threads == 0 ||
      config.petd_shards == 0) {
    return usage();
  }

  // Counters on, as in petd and in the table benches.
  pet::obs::set_level(pet::obs::Level::kCounters);
  std::printf("fingerprint %s\n",
              fingerprint_json(config.petd_flags()).c_str());

  const auto jiffies_before = cpu_jiffies();
  Report report;
  try {
    Tracer& tracer = Tracer::instance();
    if (!config.trace) {
      run(config, config.workload, Role::kPrimary, config.seconds, report);
    } else {
      tracer.set_enabled(true);
      run(config, config.workload, Role::kPrimary, config.seconds, report);
      for (const std::string& other : kWorkloads) {
        if (other != config.workload) {
          run(config, other, Role::kExcerpt, kExcerptSeconds, report);
        }
      }
      run_probe(config, report);
      tracer.set_enabled(false);

      const std::vector<SpanRecord> spans = tracer.collect();
      const std::string path = config.work_dir + "/trace-" + config.workload +
                               "-" + std::to_string(config.seed) + ".jsonl";
      write_jsonl(path, spans);
      std::printf("trace %zu spans -> %s\n", spans.size(), path.c_str());
      for (const auto& [name, t] : self_times(spans)) {
        std::printf("span %-24s count=%-9llu self_us=%-14.6g total_us=%.6g\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.self_ns / 1e3, t.total_ns / 1e3);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  // Time the hypervisor gave to other guests, as a share of busy time: a
  // high value explains an outlying run.
  const auto jiffies_after = cpu_jiffies();
  const double busy = jiffies_after.first - jiffies_before.first;
  std::printf("host steal_share=%.4f\n",
              busy > 0 ? (jiffies_after.second - jiffies_before.second) / busy
                       : 0.0);
  if (config.trace) {
    finalize(report.per_layer, kPerLayer, report);
  } else {
    finalize(report.end_to_end, kEndToEnd, report);
  }
  std::fputs(report.describe(config.trace).c_str(), stdout);
  std::printf("%s\n", report.json(config.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
