// Workloads `serve_miss`, `serve_hit` and `serve_churn`: the real petd
// binary over its Unix socket, driven with the svc frame codec.
//
// petd runs with the fixed flags from RunConfig; the generator uses at most
// two connections and two threads (open loops run on one thread).  Every reply is checked byte for byte
// against an in-process EstimationService with the same configuration
// handed the same request frames (the service's determinism contract);
// every mismatch, refusal or missing reply is a failed operation.  At the end of each run the daemon is asked for
// kMonitor, kMetrics and kFlightDump, its /proc status is read, and it must
// exit 0 on SIGTERM with its socket removed.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "channel/sorted_pet_channel.hpp"
#include "client.hpp"
#include "core/robust_estimator.hpp"
#include "obs/jsonlite.hpp"
#include "petd_process.hpp"
#include "rng/prng.hpp"
#include "schedule.hpp"
#include "service/messages.hpp"
#include "stats.hpp"
#include "tags/population.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = pet::svc;

namespace {

constexpr std::uint64_t kPopulations = 1024;
constexpr std::uint64_t kPopulationTags = 2000;
constexpr int kSetupRepeats = 5;
/// Open-loop arrival rate of serve_miss (requests/s): about half of what
/// two closed-loop connections complete on a 4-core host.
constexpr double kMissRate = 700.0;
/// serve_miss latency limit for slo_share, timed from the due time.
constexpr double kSloLimitUs = 5000.0;
/// serve_hit working set: (population, seed) keys, all cached after warm-up.
constexpr std::uint64_t kHitKeys = 16;
/// serve_churn: one population id re-registered with a fresh seed per cycle
/// (each registration a new cache epoch), K estimates per cycle with the
/// same K request seeds every cycle, and a low-rate reader beside it.
constexpr std::uint64_t kChurnPopulation = 1000000;
constexpr std::uint64_t kChurnTags = 100000;
constexpr std::uint64_t kChurnEstimates = 3;
constexpr double kChurnReaderRate = 100.0;
constexpr int kReplyTimeoutMs = 20000;
/// Length of the alternating traced/untraced blocks of a traced run.
constexpr double kTraceBlockS = 0.5;
/// In-process probe sizes for the per-layer service metrics.
constexpr int kProbeRepeats = 200;

using Clock = std::chrono::steady_clock;

/// One request and what came back for it.
struct Exchange {
  svc::Frame request;
  svc::Frame reply;
  bool answered = false;
  std::int64_t start_ns = 0;  ///< due time (open loop) or send time
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool traced = false;
  bool matched = false;  ///< reply byte-equal to the in-process one

  [[nodiscard]] double latency_us() const {
    return static_cast<double>(done_ns - start_ns) / 1e3;
  }
};

std::uint64_t population_seed(std::uint64_t seed, std::uint64_t id) {
  return pet::rng::derive_seed(seed, 0x9090000000ULL + id);
}

svc::Frame register_frame(std::uint64_t id, std::uint64_t tags,
                          std::uint64_t pop_seed) {
  return svc::make_request(svc::CommandId::kRegister,
                           svc::encode(svc::RegisterRequest{id, tags,
                                                            pop_seed}));
}

svc::Frame estimate_frame(std::uint64_t population, std::uint64_t seed) {
  svc::EstimateRequest request;
  request.population_id = population;
  request.seed = seed;
  request.epsilon = 0.10;
  request.delta = 0.05;
  request.robust = 1;
  return svc::make_request(svc::CommandId::kEstimate, svc::encode(request));
}

/// A fresh-seed estimate against one of the registered populations.
svc::Frame miss_frame(std::uint64_t seed, std::uint64_t i) {
  return estimate_frame(
      1 + pet::rng::derive_seed(seed, 0xA0000000ULL + i) % kPopulations,
      pet::rng::derive_seed(seed, 0xB0000000ULL + i));
}

bool traced_at(bool tracing, Role role, std::int64_t since_start_ns) {
  if (!tracing) return false;
  if (role == Role::kExcerpt) return true;
  return static_cast<std::int64_t>(static_cast<double>(since_start_ns) /
                                   (kTraceBlockS * 1e9)) %
             2 ==
         1;
}

/// Open loop on one thread: request i is written when due, on connection
/// i mod k, and replies are read in between (each connection answers in
/// order).  Latency counts from the due time, so a late generator or a
/// stalled daemon is charged to the requests behind it.  Returns the start
/// of the window (due time 0).
std::int64_t open_loop(const std::string& socket, std::vector<Exchange>& ex,
                       const std::vector<double>& due_s, unsigned connections,
                       bool tracing, Role role) {
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<pollfd> fds;
  for (unsigned c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<Client>());
    if (!clients.back()->connect(socket)) return now_ns();  // all unanswered
    fds.push_back(pollfd{clients.back()->fd(), POLLIN, 0});
  }
  std::vector<std::vector<std::uint8_t>> wire(ex.size());
  for (std::size_t i = 0; i < ex.size(); ++i) {
    wire[i] = svc::encode_frame(ex[i].request);
  }
  const std::int64_t t0 = now_ns() + 20'000'000;
  std::vector<std::size_t> next_reply(connections);  // per connection
  for (unsigned c = 0; c < connections; ++c) next_reply[c] = c;
  std::size_t next_send = 0;
  std::int64_t last_progress = t0;
  svc::Frame reply;
  for (;;) {
    std::int64_t now = now_ns();
    std::int64_t wait_ns = 0;
    if (next_send < ex.size()) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(due_s[next_send] * 1e9);
      if (now >= due) {
        Exchange& e = ex[next_send];
        e.start_ns = due;
        e.traced = traced_at(tracing, role, due - t0);
        e.sent_ns = now;
        if (!clients[next_send % connections]->send_bytes(wire[next_send])) {
          return t0;  // the daemon is gone; the rest stays unanswered
        }
        ++next_send;
        continue;
      }
      wait_ns = due - now;
    } else {
      bool waiting = false;
      for (unsigned c = 0; c < connections; ++c) {
        waiting = waiting || next_reply[c] < ex.size();
      }
      if (!waiting) return t0;
      wait_ns = last_progress + kReplyTimeoutMs * 1'000'000LL - now;
      if (wait_ns <= 0) return t0;  // replies overdue: count them lost
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) return t0;
    if (ready <= 0) continue;
    now = now_ns();
    for (unsigned c = 0; c < connections; ++c) {
      if (fds[c].revents == 0) continue;
      if (!clients[c]->read_some()) return t0;
      for (;;) {
        const svc::DecodeStatus status = clients[c]->next_frame(reply);
        if (status == svc::DecodeStatus::kNeedMoreData) break;
        const std::size_t i = next_reply[c];
        // A reply that does not decode, or one for a request not sent yet,
        // ends the loop; the requests left unanswered count as failed.
        if (status != svc::DecodeStatus::kFrame || i >= next_send) return t0;
        ex[i].reply = std::move(reply);
        ex[i].done_ns = now;
        ex[i].answered = true;
        if (ex[i].traced) {
          record_span("petd.request", i, ex[i].sent_ns, ex[i].done_ns);
        }
        next_reply[c] += connections;
        last_progress = now;
      }
    }
  }
}

/// Check each reply against the in-process reference, on two threads.
/// Replies do not depend on the order requests are handled in (each
/// estimate re-derives everything from its own seed), so any split works.
std::uint64_t count_mismatches(svc::EstimationService& reference,
                               std::vector<Exchange>& ex) {
  std::atomic<std::uint64_t> bad{0};
  const auto check = [&](std::size_t part) {
    for (std::size_t i = part; i < ex.size(); i += 2) {
      ex[i].matched = ex[i].answered &&
                      same_frame(ex[i].reply, reference.handle(ex[i].request));
      if (!ex[i].matched) bad.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread other(check, 1);
  check(0);
  other.join();
  return bad.load();
}

struct DaemonState {
  std::optional<svc::MonitorReply> monitor;
  std::optional<pet::obs::JsonValue> metrics;
  std::vector<svc::RequestRecord> flight;
  ProcStatus proc;
};

double json_at(const std::optional<pet::obs::JsonValue>& doc,
               std::initializer_list<const char*> path) {
  if (!doc) return -1.0;
  const pet::obs::JsonValue* v = &*doc;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) return -1.0;
  }
  return v->is_number() ? v->number : -1.0;
}

/// kMonitor, kMetrics (deterministic scope), kFlightDump and /proc status.
DaemonState inspect(const PetdProcess& petd, Report& report) {
  DaemonState state;
  state.proc = petd.status();
  Client client;
  if (!client.connect(petd.socket_path())) {
    report.fail("petd: cannot connect for the end-of-run inspection");
    return state;
  }
  if (const auto r =
          client.call(svc::make_request(svc::CommandId::kMonitor), 10000)) {
    state.monitor = svc::parse_monitor_reply(r->payload);
  }
  svc::MetricsRequest metrics_request;
  metrics_request.scope = static_cast<std::uint8_t>(
      svc::MetricsScope::kDeterministic);
  if (const auto r = client.call(
          svc::make_request(svc::CommandId::kMetrics,
                            svc::encode(metrics_request)),
          10000);
      r && r->status == 0) {
    try {
      state.metrics = pet::obs::parse_json(
          std::string(r->payload.begin(), r->payload.end()));
    } catch (const std::exception&) {
    }
  }
  if (const auto r = client.call(
          svc::make_request(svc::CommandId::kFlightDump,
                            svc::encode(svc::FlightDumpRequest{})),
          10000);
      r && r->status == 0) {
    if (auto dump = svc::parse_flight_dump_reply(r->payload)) {
      state.flight = std::move(dump->records);
    }
  }
  if (!state.monitor) {
    report.fail("petd: kMonitor did not answer");
  } else if (state.monitor->malformed_frames != 0) {
    // The generator only sends well-formed frames.
    report.fail("petd: kMonitor counted malformed frames");
  }
  if (!state.metrics) report.fail("petd: kMetrics did not answer");
  if (state.flight.empty()) report.fail("petd: kFlightDump was empty");
  if (!state.proc.ok) report.fail("petd: /proc status unreadable");
  return state;
}

template <typename F>
double median_us(int repeats, F&& body) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    body(i);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

/// petd CPU per operation.  Consecutive 1 s sampling intervals are merged
/// until they hold at least kMinWindowOps completed operations; each such
/// window gives CPU used / operations, and the median over windows is
/// reported, so a burst of interference moves one window only.  With fewer
/// than three windows (serve_churn completes ~25 cycles a second) the whole
/// span is used.
constexpr std::size_t kMinWindowOps = 100;

double windowed_cpu_us_per_op(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::vector<std::int64_t> done_ns) {
  if (samples.size() < 2 || done_ns.empty()) return 0.0;
  for (const auto& [t, cpu] : samples) {
    if (cpu < 0) return 0.0;
  }
  std::sort(done_ns.begin(), done_ns.end());
  const auto ops_before = [&](std::int64_t t) {
    return static_cast<std::size_t>(
        std::lower_bound(done_ns.begin(), done_ns.end(), t) - done_ns.begin());
  };
  std::vector<double> per_op;
  std::size_t from = 0;
  for (std::size_t k = 1; k < samples.size(); ++k) {
    const std::size_t ops =
        ops_before(samples[k].first) - ops_before(samples[from].first);
    if (ops < kMinWindowOps) continue;
    per_op.push_back((samples[k].second - samples[from].second) * 1e6 /
                     static_cast<double>(ops));
    from = k;
  }
  if (per_op.size() >= 3) return median(std::move(per_op));
  const std::size_t total =
      ops_before(samples.back().first) - ops_before(samples.front().first);
  return total == 0 ? 0.0
                    : (samples.back().second - samples.front().second) * 1e6 /
                          static_cast<double>(total);
}

class ServeRun {
 public:
  ServeRun(const RunConfig& config, ServeKind kind, Role role, double seconds,
           Report& report)
      : config_(config),
        kind_(kind),
        role_(role),
        seconds_(seconds),
        report_(report),
        reference_(config.service_config()),
        socket_(config.work_dir + "/petd-" + std::to_string(::getpid()) +
                ".sock") {}

  void run();

 private:
  [[nodiscard]] bool primary() const { return role_ == Role::kPrimary; }
  [[nodiscard]] bool tracing() const { return config_.trace; }

  struct Setup {
    double cpu_s = 0.0;   ///< median petd CPU seconds, start to registered
    double wall_s = 0.0;  ///< median wall seconds of the same
  };
  Setup set_up();
  void run_miss();
  void run_hit();
  void run_churn();
  void finish(const Setup& setup);
  void fail_ops(std::uint64_t attempted, std::uint64_t failed,
                const char* what);

  const RunConfig& config_;
  ServeKind kind_;
  Role role_;
  double seconds_;
  Report& report_;
  svc::EstimationService reference_;
  std::string socket_;
  std::unique_ptr<PetdProcess> petd_;

  /// Primary latency samples and when each was taken (seconds into the
  /// window); p50 (and serve_hit's rate) are medians over 1-second windows
  /// of these.
  std::vector<double> latency_us_;
  std::vector<double> latency_at_s_;
  double rate_per_s_ = 0.0;
  std::string latency_alias_;
  std::string rate_alias_;
  std::vector<Exchange> open_;  ///< open-loop requests (miss / churn reader)
  std::int64_t open_start_ns_ = 0;
  std::uint64_t ops_ = 0;  ///< requests (cycles for churn) in the window
  std::vector<std::int64_t> op_done_ns_;  ///< when each of them completed
  double cpu_us_per_op_ = 0.0;
  double overhead_share_ = 0.0;
  bool have_overhead_ = false;
};

void ServeRun::fail_ops(std::uint64_t attempted, std::uint64_t failed,
                        const char* what) {
  report_.attempted += attempted;
  report_.failed += failed;
  if (failed > 0) {
    report_.fail(std::to_string(failed) + " of " + std::to_string(attempted) +
                 " " + what + " failed or mismatched the in-process reply");
  }
}

/// Start petd and register the populations; repeated, each time on a fresh
/// daemon (the previous one must shut down cleanly).  Returns the median.
ServeRun::Setup ServeRun::set_up() {
  std::vector<svc::Frame> requests, expected;
  for (std::uint64_t id = 1; id <= kPopulations; ++id) {
    requests.push_back(register_frame(id, kPopulationTags,
                                      population_seed(config_.seed, id)));
    expected.push_back(reference_.handle(requests.back()));
  }
  std::vector<double> setup_s, setup_cpu_s;
  const int repeats = primary() ? kSetupRepeats : 1;
  for (int rep = 0; rep < repeats; ++rep) {
    if (petd_) {
      const std::string problem = petd_->shutdown();
      if (!problem.empty()) report_.fail(problem);
      petd_.reset();
    }
    const std::int64_t t0 = now_ns();
    petd_ = std::make_unique<PetdProcess>(config_.petd, socket_,
                                          config_.petd_flags());
    Client client;
    std::uint64_t bad = 0;
    if (!client.connect(socket_)) throw std::runtime_error("petd: no socket");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto reply = client.call(requests[i], kReplyTimeoutMs);
      if (!reply || !same_frame(*reply, expected[i])) ++bad;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    // Read while the registering session thread is still alive.
    setup_cpu_s.push_back(live_threads_cpu_seconds(petd_->pid()));
    fail_ops(requests.size(), bad, "registrations");
  }
  return {median(setup_cpu_s), median(setup_s)};
}

void ServeRun::run_miss() {
  const std::vector<double> due = poisson_schedule(
      pet::rng::derive_seed(config_.seed, 0x0be4ULL), kMissRate, seconds_);
  open_.resize(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    open_[i].request = miss_frame(config_.seed, i);
  }
  open_start_ns_ = open_loop(socket_, open_, due, 2, tracing(), role_);
  for (const Exchange& e : open_) {
    if (e.answered) op_done_ns_.push_back(e.done_ns);
  }
  rate_alias_ = "serve_miss completed/s (open loop, offered " +
                std::to_string(static_cast<int>(kMissRate)) + "/s)";
  latency_alias_ = "miss";
}

void ServeRun::run_hit() {
  std::vector<svc::Frame> keys, expected;
  for (std::uint64_t k = 0; k < kHitKeys; ++k) {
    keys.push_back(estimate_frame(1 + (k * 61) % kPopulations,
                                  pet::rng::derive_seed(config_.seed,
                                                        0xC0000ULL + k)));
    expected.push_back(reference_.handle(keys.back()));
  }
  std::uint64_t attempted = 0, bad = 0;
  {
    Client warm;  // first sight of every key: the only cache misses
    if (!warm.connect(socket_)) throw std::runtime_error("petd: no socket");
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto reply = warm.call(keys[k], kReplyTimeoutMs);
      ++attempted;
      if (!reply || !same_frame(*reply, expected[k])) ++bad;
    }
  }

  // Closed loop: two connections, each sends its next request when the
  // previous reply has arrived.
  constexpr unsigned kConnections = 2;
  std::vector<std::vector<double>> lat(kConnections), at(kConnections),
      lat_traced(kConnections);
  std::vector<std::vector<std::int64_t>> done_ns(kConnections);
  std::vector<std::uint64_t> sent(kConnections, 0), wrong(kConnections, 0);
  const std::int64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::int64_t>(seconds_ * 1e9);
  const auto loop = [&](unsigned c) {
    Client client;
    if (!client.connect(socket_)) return;
    std::vector<std::vector<std::uint8_t>> wire;
    for (const svc::Frame& key : keys) wire.push_back(svc::encode_frame(key));
    pet::rng::SplitMix64 pick(pet::rng::derive_seed(config_.seed, 0x417 + c));
    svc::Frame reply;
    for (std::uint64_t i = 0;; ++i) {
      const std::int64_t start = now_ns();
      if (start >= end) break;
      const std::size_t k = pick() % keys.size();
      ++sent[c];
      if (!client.send_bytes(wire[k]) || !client.recv(reply, kReplyTimeoutMs)) {
        ++wrong[c];
        break;
      }
      const std::int64_t done = now_ns();
      done_ns[c].push_back(done);
      if (!same_frame(reply, expected[k])) ++wrong[c];
      const double us = static_cast<double>(done - start) / 1e3;
      if (traced_at(tracing(), role_, start - t0)) {
        record_span("petd.request", (std::uint64_t{c} << 48) | i, start, done);
        lat_traced[c].push_back(us);
      } else {
        lat[c].push_back(us);
        at[c].push_back(static_cast<double>(start - t0) / 1e9);
      }
    }
  };
  std::thread second(loop, 1);
  loop(0);
  second.join();
  for (unsigned c = 0; c < kConnections; ++c) {
    op_done_ns_.insert(op_done_ns_.end(), done_ns[c].begin(), done_ns[c].end());
    attempted += sent[c];
    bad += wrong[c];
    latency_us_.insert(latency_us_.end(), lat[c].begin(), lat[c].end());
    latency_at_s_.insert(latency_at_s_.end(), at[c].begin(), at[c].end());
  }
  std::vector<double> traced;
  for (const auto& v : lat_traced) traced.insert(traced.end(), v.begin(), v.end());
  if (!traced.empty() && !latency_us_.empty()) {
    overhead_share_ = median(traced) / median(latency_us_) - 1.0;
    have_overhead_ = true;
  }
  if (latency_us_.empty()) latency_us_ = traced;
  fail_ops(attempted, bad, "cache-hit estimates");
  rate_alias_ = "hit_rps (closed loop, 2 connections; median over 1 s)";
  latency_alias_ = "hit";

  if (!tracing()) return;
  // Layer split of a hit: socket round trip vs in-process submit/handle.
  Client client;
  if (!client.connect(socket_)) throw std::runtime_error("petd: no socket");
  const svc::Frame ping = svc::make_request(svc::CommandId::kPing);
  const double rtt = median_us(2000, [&](int) {
    if (!client.call(ping, kReplyTimeoutMs)) report_.fail("ping lost");
  });
  const double local_ping = median_us(2000, [&](int) {
    (void)reference_.submit(ping).get();
  });
  const double handle_hit = median_us(2000, [&](int i) {
    (void)reference_.handle(keys[static_cast<std::size_t>(i) % keys.size()]);
  });
  const double submit_hit = median_us(2000, [&](int i) {
    (void)reference_
        .submit(keys[static_cast<std::size_t>(i) % keys.size()])
        .get();
  });
  report_.set_layer({"petd.rtt_ping_us", rtt, "us", 2000, "socket ping"});
  report_.set_layer({"petd.transport_us", rtt - local_ping, "us", 2000,
                     "socket ping - in-process submit(ping)"});
  report_.set_layer({"service.handle_hit_us", handle_hit, "us", 2000,
                     "in-process handle() of a cached estimate"});
  report_.set_layer({"service.handoff_us", submit_hit - handle_hit, "us",
                     2000, "submit().get() - handle(), cache hit"});
}

void ServeRun::run_churn() {
  // Writer: connect, ping, register a fresh 1e5-tag population under the
  // churn id, K estimates, unregister, close — repeated until the window
  // ends.  The reader runs an open loop beside it on its own connection.
  struct Cycle {
    std::vector<Exchange> ex;  ///< register, K estimates, unregister
    double connect_us = 0.0;
    double register_us = 0.0;
    double cycle_us = 0.0;
    std::int64_t end_ns = 0;
    bool traced = false;
  };
  std::vector<Cycle> cycles;
  std::atomic<bool> writer_failed{false};
  const std::int64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::int64_t>(seconds_ * 1e9);
  std::thread writer([&] {
    const svc::Frame ping = svc::make_request(svc::CommandId::kPing);
    for (std::uint64_t c = 0; now_ns() < end; ++c) {
      Cycle cycle;
      cycle.ex.resize(kChurnEstimates + 2);
      cycle.ex[0].request = register_frame(
          kChurnPopulation, kChurnTags,
          pet::rng::derive_seed(config_.seed, 0xD000000ULL + c));
      for (std::uint64_t k = 0; k < kChurnEstimates; ++k) {
        cycle.ex[1 + k].request = estimate_frame(
            kChurnPopulation, pet::rng::derive_seed(config_.seed, 0xE00 + k));
      }
      cycle.ex.back().request = svc::make_request(
          svc::CommandId::kUnregister,
          svc::encode(svc::UnregisterRequest{kChurnPopulation}));
      const std::int64_t c0 = now_ns();
      cycle.traced = traced_at(tracing(), role_, c0 - t0);
      Client client;
      if (!client.connect(socket_) || !client.call(ping, kReplyTimeoutMs)) {
        writer_failed = true;
        return;
      }
      cycle.connect_us = static_cast<double>(now_ns() - c0) / 1e3;
      for (Exchange& e : cycle.ex) {
        e.start_ns = e.sent_ns = now_ns();
        e.answered = client.send(e.request) &&
                     client.recv(e.reply, kReplyTimeoutMs);
        e.done_ns = now_ns();
        if (!e.answered) {
          writer_failed = true;
          break;
        }
        if (cycle.traced) {
          record_span("petd.request", 0x7ULL << 60 | c, e.start_ns, e.done_ns);
        }
      }
      cycle.register_us = cycle.ex[0].latency_us();
      client.close();
      cycle.end_ns = now_ns();
      cycle.cycle_us = static_cast<double>(cycle.end_ns - c0) / 1e3;
      cycles.push_back(std::move(cycle));
      if (writer_failed) return;
    }
  });
  const std::vector<double> due =
      poisson_schedule(pet::rng::derive_seed(config_.seed, 0xc4u),
                       kChurnReaderRate, seconds_);
  open_.resize(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    open_[i].request = miss_frame(config_.seed, i);
  }
  open_start_ns_ = open_loop(socket_, open_, due, 1, tracing(), role_);
  writer.join();

  // Replay the cycles in process.  A cycle's replies depend only on its
  // own frames, so even and odd cycles replay on two references in
  // parallel; each reference still re-registers the id every cycle it sees.
  // A stale cache entry in petd (the previous cycle's reply to the same
  // seed) therefore shows as a mismatch.
  std::vector<double> connect_us, cycle_us, register_traced_us;
  for (const Cycle& cycle : cycles) {
    connect_us.push_back(cycle.connect_us);
    cycle_us.push_back(cycle.cycle_us);
    if (cycle.traced) {
      register_traced_us.push_back(cycle.register_us);
      continue;
    }
    latency_us_.push_back(cycle.register_us);
    latency_at_s_.push_back(
        static_cast<double>(cycle.ex[0].start_ns - t0) / 1e9);
  }
  if (!register_traced_us.empty() && !latency_us_.empty()) {
    overhead_share_ = median(register_traced_us) / median(latency_us_) - 1.0;
    have_overhead_ = true;
  }
  if (latency_us_.empty()) latency_us_ = register_traced_us;
  svc::EstimationService odd_reference(config_.service_config());
  std::array<std::uint64_t, 2> part_bad{0, 0};
  std::array<std::vector<double>, 2> part_register_ms;
  const auto replay = [&](std::size_t part) {
    svc::EstimationService& reference = part == 0 ? reference_ : odd_reference;
    for (std::size_t c = part; c < cycles.size(); c += 2) {
      for (std::size_t i = 0; i < cycles[c].ex.size(); ++i) {
        const Exchange& e = cycles[c].ex[i];
        const std::int64_t r0 = now_ns();
        const svc::Frame expected = reference.handle(e.request);
        if (i == 0) {
          part_register_ms[part].push_back(
              static_cast<double>(now_ns() - r0) / 1e6);
        }
        if (!e.answered || !same_frame(e.reply, expected)) ++part_bad[part];
      }
    }
  };
  std::thread odd(replay, 1);
  replay(0);
  odd.join();
  std::uint64_t attempted = 0;
  for (const Cycle& cycle : cycles) attempted += cycle.ex.size();
  for (const Cycle& cycle : cycles) op_done_ns_.push_back(cycle.end_ns);
  const std::uint64_t bad = part_bad[0] + part_bad[1] + (writer_failed ? 1 : 0);
  std::vector<double> reference_register_ms = part_register_ms[0];
  reference_register_ms.insert(reference_register_ms.end(),
                               part_register_ms[1].begin(),
                               part_register_ms[1].end());
  fail_ops(attempted, bad, "churn writer requests");
  // One writer runs the cycles back to back: its rate is one over the
  // cycle time (median, so one stalled cycle does not move it).
  const double cycle_p50_us = median(cycle_us);
  rate_per_s_ = cycle_p50_us > 0 ? 1e6 / cycle_p50_us : 0.0;
  rate_alias_ = "churn_cycles_per_s (1 / median cycle time)";
  latency_alias_ = "reg (register 1e5 tags over the socket)";
  if (tracing()) {
    report_.set_layer({"petd.connect_us", median(connect_us), "us",
                       connect_us.size(), "connect + first ping, per cycle"});
    report_.set_layer({"service.register_ms", median(reference_register_ms),
                       "ms", reference_register_ms.size(),
                       "in-process handle(register 1e5 tags)"});
  }
}

void ServeRun::run() {
  const Setup setup = set_up();
  // petd's CPU time, sampled once a second through the workload.
  const pid_t pid = petd_->pid();
  std::vector<std::pair<std::int64_t, double>> cpu_samples;
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    const std::int64_t t0 = now_ns();
    cpu_samples.emplace_back(t0, process_cpu_seconds(pid));
    for (std::int64_t k = 1; !stop.load(); ++k) {
      while (!stop.load() && now_ns() < t0 + k * 1'000'000'000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      cpu_samples.emplace_back(now_ns(), process_cpu_seconds(pid));
    }
  });
  try {
    switch (kind_) {
      case ServeKind::kMiss: run_miss(); break;
      case ServeKind::kHit: run_hit(); break;
      case ServeKind::kChurn: run_churn(); break;
    }
  } catch (...) {
    stop = true;
    sampler.join();
    throw;
  }
  stop = true;
  sampler.join();
  cpu_us_per_op_ = windowed_cpu_us_per_op(cpu_samples, op_done_ns_);
  ops_ = op_done_ns_.size();
  if (!(cpu_us_per_op_ > 0.0)) {
    report_.fail("petd: CPU time unreadable or no operations completed");
  }
  finish(setup);
}

void ServeRun::finish(const Setup& setup) {
  // Open-loop requests (serve_miss, churn reader): latency from due time.
  std::vector<double> open_lat, open_at, open_lat_traced, late;
  std::int64_t open_end_ns = open_start_ns_;
  for (const Exchange& e : open_) {
    if (e.sent_ns > 0) {
      late.push_back(static_cast<double>(e.sent_ns - e.start_ns) / 1e3);
    }
    if (!e.answered) continue;
    open_end_ns = std::max(open_end_ns, e.done_ns);
    if (e.traced) {
      open_lat_traced.push_back(e.latency_us());
    } else {
      open_lat.push_back(e.latency_us());
      open_at.push_back(static_cast<double>(e.start_ns - open_start_ns_) /
                        1e9);
    }
  }
  if (kind_ == ServeKind::kMiss) {
    latency_us_ = open_lat.empty() ? open_lat_traced : open_lat;
    latency_at_s_ = std::move(open_at);
    if (!open_lat.empty() && !open_lat_traced.empty()) {
      overhead_share_ = median(open_lat_traced) / median(open_lat) - 1.0;
      have_overhead_ = true;
    }
    // Completions over the time to the last reply: the offered rate while
    // the daemon keeps up, less once a backlog builds.
    if (open_end_ns > open_start_ns_) {
      rate_per_s_ = static_cast<double>(open_lat.size() +
                                        open_lat_traced.size()) /
                    (static_cast<double>(open_end_ns - open_start_ns_) / 1e9);
    }
  }

  const DaemonState state = inspect(*petd_, report_);
  const double hits = json_at(state.metrics, {"service", "cache", "hits"});
  const double misses = json_at(state.metrics, {"service", "cache", "misses"});
  if (state.metrics && kind_ == ServeKind::kHit &&
      !(hits >= 0.99 * (hits + misses))) {
    report_.fail("serve_hit: cache hit ratio below 0.99");
  }
  if (state.metrics && kind_ == ServeKind::kMiss && hits != 0.0) {
    report_.fail("serve_miss: the result cache served a hit");
  }

  // In-process service probes on the reference (identical populations).
  if (tracing() && kind_ == ServeKind::kMiss) {
    std::vector<svc::Frame> probe;
    for (int i = 0; i < kProbeRepeats; ++i) {
      probe.push_back(miss_frame(config_.seed ^ 0x9e37ULL,
                                 static_cast<std::uint64_t>(i)));
    }
    // The same requests straight into the estimator, on channels built the
    // way the registry builds them; interleaved with handle() so each pair
    // is measured under the same conditions.
    std::vector<std::vector<pet::TagId>> tags(kPopulations + 1);
    std::vector<std::unique_ptr<pet::chan::SortedPetChannel>> channels(
        kPopulations + 1);
    std::vector<svc::EstimateRequest> parsed;
    for (const svc::Frame& f : probe) {
      const auto r = svc::parse_estimate_request(f.payload);
      parsed.push_back(*r);
      const std::uint64_t id = r->population_id;
      if (channels[id]) continue;
      const std::uint64_t pop_seed = population_seed(config_.seed, id);
      const auto population =
          pet::tags::TagPopulation::generate(kPopulationTags, pop_seed);
      tags[id].assign(population.ids().begin(), population.ids().end());
      pet::chan::SortedPetChannelConfig cc;
      cc.manufacturing_seed = pet::rng::derive_seed(pop_seed, 1);
      channels[id] = std::make_unique<pet::chan::SortedPetChannel>(tags[id], cc);
    }
    pet::core::RobustPetConfig rc;
    rc.vote_reads = config_.service_config().vote_reads;
    rc.vote_quorum = config_.service_config().vote_quorum;
    const pet::core::RobustPetEstimator robust(
        rc, pet::stats::AccuracyRequirement{0.10, 0.05});
    std::vector<double> handle_us, robust_us, overhead_us;
    for (std::size_t i = 0; i < probe.size(); ++i) {
      std::int64_t t0 = now_ns();
      const svc::Frame reply = reference_.handle(probe[i]);
      handle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      pet::chan::SortedPetChannel& channel = *channels[parsed[i].population_id];
      channel.reset_ledger();
      t0 = now_ns();
      const auto direct = robust.estimate_with_rounds(
          channel, robust.planned_rounds(), parsed[i].seed);
      robust_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      overhead_us.push_back(handle_us.back() - robust_us.back());
      const auto served = svc::parse_estimate_reply(reply.payload);
      if (!served || served->n_hat != direct.base.n_hat) {
        report_.fail("probe: direct estimate differs from handle()'s");
      }
    }
    report_.set_layer({"service.handle_miss_us", median(handle_us), "us",
                       kProbeRepeats, "in-process handle(), fresh seed"});
    report_.set_layer({"core.robust_us", median(robust_us), "us",
                       kProbeRepeats,
                       "RobustPetEstimator::estimate_with_rounds, same pops"});
    report_.set_layer({"service.overhead_us", median(overhead_us), "us",
                       kProbeRepeats, "handle miss - robust, per request"});
  }

  const std::string problem = petd_->shutdown();
  petd_.reset();
  if (!problem.empty()) report_.fail(problem);

  // Open-loop replies against the reference; a failed or mismatched
  // request misses the latency limit.
  double slo_share = 1.0;
  if (!open_.empty()) {
    fail_ops(open_.size(), count_mismatches(reference_, open_),
             kind_ == ServeKind::kMiss ? "fresh-seed estimates"
                                       : "churn reader estimates");
    const auto within = std::count_if(
        open_.begin(), open_.end(), [](const Exchange& e) {
          return e.matched && e.reply.status == 0 &&
                 e.latency_us() <= kSloLimitUs;
        });
    slo_share = static_cast<double>(within) / static_cast<double>(open_.size());
  }

  const Distribution lat = summarize(latency_us_);
  const Windowed win = windowed(latency_at_s_, latency_us_, 1.0, seconds_);
  if (kind_ == ServeKind::kHit) rate_per_s_ = win.rate_per_s;
  char tail_pct[16];
  std::snprintf(tail_pct, sizeof tail_pct, "p%g", lat.tail_pct);
  const double peak_rss = state.proc.vm_hwm_mb;
  // Wall-clock figures: printed by untraced runs, per-layer in traced ones
  // (they move with the load of other guests on the host, so they are not
  // gated; see README.md).
  const std::vector<Metric> wall = {
      {"e2e.setup_wall_s", setup.wall_s, "s", primary() ? kSetupRepeats : 1u,
       "start petd + register 1024 pops"},
      {"e2e.rate_per_s", rate_per_s_, "1/s", lat.n, rate_alias_},
      {"e2e.p50_us", win.p50, "us", lat.n,
       latency_alias_ + " p50 (median over 1 s windows)"},
      {"e2e.tail_us", lat.tail, "us", lat.n, latency_alias_ + " " + tail_pct},
  };
  if (primary() && !tracing()) {
    report_.end_to_end = {
        {"setup_s", setup.cpu_s, "s", kSetupRepeats,
         "petd CPU: start + register 1024 pops (median)"},
        {"cpu_us_per_op", cpu_us_per_op_, "us", ops_,
         std::string("petd CPU per ") +
             (kind_ == ServeKind::kChurn ? "cycle" : "request")},
        {"rss_mb", peak_rss, "MB", 1, "petd_rss_mb (VmHWM)"},
    };
    report_.info = wall;
    if (!open_.empty()) {
      report_.info.push_back({"loadgen.slo_share", slo_share, "share",
                              open_.size(), "within 5 ms of due, correct"});
      report_.info.push_back({"loadgen.late_us_tail", summarize(late).tail,
                              "us", late.size(), "send time - due time"});
    }
    report_.info.push_back({"petd.vsz_mb", state.proc.vm_size_mb, "MB", 1,
                            "VmSize at the end"});
    return;
  }
  if (!tracing()) return;

  if (primary()) {
    for (const Metric& m : wall) report_.set_layer(m);
  }
  if (primary() && have_overhead_) {
    report_.set_layer({"trace.overhead_share", overhead_share_, "share",
                       lat.n, "traced/untraced median latency - 1"});
  }
  switch (kind_) {
    case ServeKind::kHit:
      report_.set_layer({"service.cache_hit_ratio", hits / (hits + misses),
                         "share", static_cast<std::uint64_t>(hits + misses),
                         "kMetrics cache hits / lookups"});
      break;
    case ServeKind::kMiss: {
      std::vector<double> queue, handle;
      for (const svc::RequestRecord& r : state.flight) {
        if (r.command != static_cast<std::uint16_t>(svc::CommandId::kEstimate) ||
            r.cache_hit != 0) {
          continue;
        }
        queue.push_back(static_cast<double>(r.queue_us));
        handle.push_back(static_cast<double>(r.handle_us));
      }
      const Distribution q = summarize(queue), h = summarize(handle);
      report_.set_layer({"service.queue_us_p50", q.p50, "us", q.n,
                         "kFlightDump queue_us"});
      report_.set_layer({"service.queue_us_tail", q.tail, "us", q.n,
                         "kFlightDump queue_us at the supported tail"});
      report_.set_layer({"service.handle_us_p50", h.p50, "us", h.n,
                         "kFlightDump handle_us"});
      report_.set_layer({"service.handle_us_tail", h.tail, "us", h.n,
                         "kFlightDump handle_us at the supported tail"});
      const Distribution l = summarize(late);
      report_.set_layer({"loadgen.late_us_tail", l.tail, "us", l.n,
                         "open-loop send time - due time"});
      report_.set_layer({"loadgen.slo_share", slo_share, "share",
                         open_.size(),
                         "miss_slo_share: answered OK within 5 ms of due"});
      report_.set_layer({"service.shed",
                         json_at(state.metrics, {"service", "totals", "shed"}),
                         "count", 1, "kMetrics"});
      report_.set_layer(
          {"service.degraded",
           json_at(state.metrics, {"service", "totals", "degraded"}), "count",
           1, "kMetrics"});
      report_.set_layer(
          {"service.resyncs",
           json_at(state.metrics, {"service", "connections", "resyncs"}),
           "count", 1, "kMetrics"});
      break;
    }
    case ServeKind::kChurn: {
      report_.set_layer({"petd.vsz_mb", state.proc.vm_size_mb, "MB", 1,
                         "petd VmSize after the churn"});
      report_.set_layer({"petd.threads",
                         static_cast<double>(state.proc.threads), "count", 1,
                         "petd Threads after the churn"});
      const Distribution reader = summarize(open_lat_traced);
      report_.set_layer({"churn.reader_p50_us", reader.p50, "us", reader.n,
                         "reader latency beside the writer"});
      break;
    }
  }
}

}  // namespace

void run_serve(const RunConfig& config, ServeKind kind, Role role,
               double seconds, Report& report) {
  ServeRun(config, kind, role, seconds, report).run();
}

}  // namespace perfbench
