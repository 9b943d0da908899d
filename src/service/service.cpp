#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/ensure.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"
#include "core/robust_estimator.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "rng/prng.hpp"
#include "service/metrics_export.hpp"

namespace pet::svc {

namespace {

/// Seed-stream tags for the per-request derivations (rng::derive_seed
/// contract: distinct stream ids never collide across subsystems).
constexpr std::uint64_t kBackoffStream = 0x5bacull;

[[nodiscard]] Frame ready_error(CommandId command, StatusCode status,
                                std::string_view detail) {
  return make_error(command, static_cast<std::uint16_t>(status), detail);
}

[[nodiscard]] std::future<Frame> ready_future(Frame frame) {
  std::promise<Frame> promise;
  promise.set_value(std::move(frame));
  return promise.get_future();
}

[[nodiscard]] bool valid_fraction(double v) noexcept {
  return std::isfinite(v) && v > 0.0 && v < 1.0;
}

[[nodiscard]] std::vector<std::uint8_t> utf8_bytes(const std::string& text) {
  return {text.begin(), text.end()};
}

[[nodiscard]] std::uint64_t f64_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

[[nodiscard]] std::string request_id_suffix(std::uint64_t request_id) {
  return " [request-id=" + format_request_id(request_id) + "]";
}

/// The one writer of a population's request totals and their obs mirrors
/// (pet.svc.pop.*, svc.req.degraded, svc.deadline.misses,
/// svc.retry.{attempts,backoff_slots}).  Called once per estimate that found
/// its population — computed, replayed from the cache, or refused with a
/// typed error — and once per admission shed charged to a population, so
/// every outcome is counted the same way whichever path produced it.
void fold(PopulationStats& pop, const RequestRecord& record,
          std::uint64_t deadline_slots) {
  const bool mirror = obs::counters_enabled();
  const auto add = [mirror](std::atomic<std::uint64_t>& cell,
                            obs::Counter obs::SvcPopInstruments::*counter,
                            std::uint64_t n = 1) {
    cell.fetch_add(n, std::memory_order_relaxed);
    if (mirror) (obs::svc_pop_instruments().*counter).add(n);
  };
  using Pop = obs::SvcPopInstruments;
  if ((record.degrade_mask & kDegradeShed) != 0) {
    add(pop.shed, &Pop::shed);
    return;
  }
  const bool ok = record.status == static_cast<std::uint16_t>(StatusCode::kOk);
  const bool truncated = (record.degrade_mask & kDegradeTruncated) != 0;
  // A deadline miss is a DEADLINE_EXCEEDED refusal, or a budgeted kOk whose
  // round loop was stopped early (a degraded answer that still shipped).
  const bool deadline_miss =
      ok ? truncated && deadline_slots > 0
         : record.status ==
               static_cast<std::uint16_t>(StatusCode::kDeadlineExceeded);
  add(pop.requests, &Pop::requests);
  add(pop.retries, &Pop::retries, record.retries);
  add(pop.backoff_slots, &Pop::backoff_slots, record.backoff_slots);
  pop.observe_latency_slots(record.latency_slots);
  if (ok) {
    add(pop.ok, &Pop::ok);
    add(pop.query_slots, &Pop::query_slots, record.query_slots);
    add(pop.rounds, &Pop::rounds, record.rounds);
    add(pop.rounds_planned, &Pop::rounds_planned, record.planned_rounds);
    if (record.cache_hit != 0) add(pop.cache_hits, &Pop::cache_hits);
    if (truncated) add(pop.truncated, &Pop::truncated);
    if (record.degrade_mask != 0) add(pop.degraded, &Pop::degraded);
  } else {
    add(pop.errors, &Pop::errors);
  }
  if (deadline_miss) add(pop.deadline_misses, &Pop::deadline_misses);
  if (mirror) {
    obs::svc_pop_instruments().latency_slots.observe(
        static_cast<double>(record.latency_slots));
    const obs::SvcInstruments& svc = obs::svc_instruments();
    svc.retry_attempts.add(record.retries);
    svc.retry_backoff_slots.add(record.backoff_slots);
    if (ok && record.degrade_mask != 0) svc.req_degraded.add();
    if (deadline_miss) svc.deadline_misses.add();
  }
}

/// Why an estimate stage refused: the typed status and the fixed part of
/// the error detail (the request-id suffix is appended only on refusal).
struct Refusal {
  StatusCode status;
  const char* detail;
};

/// Everything the response bytes depend on besides the population content,
/// which the entry's registration epoch pins (registry.hpp), so a
/// re-registered id can never serve stale bytes.
[[nodiscard]] ResultCache::Key cache_key(const EstimateRequest& req,
                                         std::uint64_t epoch,
                                         const ServiceConfig& config) {
  ResultCache::Key key;
  key.epoch = epoch;
  key.population_id = req.population_id;
  key.seed = req.seed;
  key.epsilon_bits = f64_bits(req.epsilon);
  key.delta_bits = f64_bits(req.delta);
  key.deadline_slots = req.deadline_slots;
  key.robust = req.robust;
  key.vote_reads = config.vote_reads;
  key.vote_quorum = config.vote_quorum;
  return key;
}

/// Cache stage.  A hit copies out the stored payload and the computing
/// miss's record; the key pins every request byte, so that record already
/// names this request (id, population, shard) and only its queue time and
/// hit stamp are this request's own.
[[nodiscard]] bool lookup_cached(ResultCache& cache, const ResultCache::Key& key,
                                 std::vector<std::uint8_t>& payload,
                                 RequestRecord& record) {
  if (!cache.enabled()) return false;
  RequestRecord stored;
  if (!cache.lookup(key, payload, stored)) {
    if (obs::counters_enabled()) obs::svc_cache_instruments().misses.add();
    return false;
  }
  stored.queue_us = record.queue_us;
  stored.cache_hit = 1;
  record = stored;
  if (obs::counters_enabled()) {
    obs::svc_cache_instruments().hits.add();
    obs::svc_cache_instruments().bytes.set(
        static_cast<double>(cache.stats().bytes));
  }
  return true;
}

/// Link-retry stage: transient link faults get a seeded retry with capped
/// backoff.  One FaultModel per request, seeded from (service fault seed,
/// request seed): the fault sequence — and therefore the retry schedule —
/// is a pure function of the request, independent of arrival order or pool
/// width.  Backoff is virtual (slots charged against the deadline budget,
/// not slept): petd must not burn a worker thread idling.
[[nodiscard]] std::optional<Refusal> retry_link(const ServiceConfig& config,
                                                const EstimateRequest& req,
                                                RequestRecord& record) {
  sim::ChannelImpairments link = config.link_faults;
  link.seed = rng::derive_seed(config.link_faults.seed, req.seed);
  sim::FaultModel fault_model(link);
  BackoffSchedule schedule(config.retry,
                           rng::derive_seed(req.seed, kBackoffStream));
  for (std::uint32_t attempt = 1;; ++attempt) {
    fault_model.begin_slot();
    if (!fault_model.reader_down() && !fault_model.erases_reply()) {
      return std::nullopt;
    }
    if (!schedule.allows_retry(attempt)) {
      return Refusal{StatusCode::kUnavailable,
                     "transient link faults outlasted the retry policy"};
    }
    record.backoff_slots += schedule.next_backoff_slots();
    record.retries = schedule.retries();
    if (req.deadline_slots > 0 && record.backoff_slots >= req.deadline_slots) {
      return Refusal{StatusCode::kDeadlineExceeded,
                     "retry backoff consumed the deadline budget"};
    }
  }
}

/// The deadline plan: which estimator runs and how many of its planned
/// rounds fit the slot budget left after backoff, each charged its worst
/// case (core::PetConfig::worst_case_slots_per_round()).  Decided before
/// running — the degrade decision must not depend on outcomes not yet
/// computed.
struct EstimatePlan {
  std::optional<core::RobustPetEstimator> robust;
  std::optional<core::PetEstimator> vanilla;
  std::uint64_t fit_rounds = 0;  ///< 0: not even one round fits
};

[[nodiscard]] EstimatePlan plan_rounds(const ServiceConfig& config,
                                       const EstimateRequest& req,
                                       RequestRecord& record) {
  const stats::AccuracyRequirement requirement{req.epsilon, req.delta};
  core::PetConfig base;
  base.tree_height = config.registry.tree_height;
  std::uint64_t slots_per_round = base.worst_case_slots_per_round();
  EstimatePlan plan;
  if (req.robust == 1) {
    core::RobustPetConfig rc;
    rc.base = base;
    rc.vote_reads = config.vote_reads;
    rc.vote_quorum = config.vote_quorum;
    plan.robust.emplace(rc, requirement);
    record.planned_rounds = plan.robust->planned_rounds();
    // Worst case every probe goes to a full m-read vote.
    slots_per_round *= config.vote_reads;
  } else {
    plan.vanilla.emplace(base, requirement);
    record.planned_rounds = plan.vanilla->planned_rounds();
  }
  plan.fit_rounds = record.planned_rounds;
  if (req.deadline_slots > 0) {
    const std::uint64_t remaining = req.deadline_slots - record.backoff_slots;
    plan.fit_rounds = std::min<std::uint64_t>(record.planned_rounds,
                                              remaining / slots_per_round);
  }
  return plan;
}

/// Run stage: execute the plan over the population's long-lived channel,
/// serialized per population, and fill the record's outcome.  The round
/// gate stops early only on drain.  The slot budget needs no gate: a round
/// costs at most its worst case times vote_reads real slots, and
/// plan_rounds only plans the rounds that fit.
[[nodiscard]] EstimateReply run_plan(const std::atomic<bool>& draining,
                                     PopulationRegistry::Entry& entry,
                                     const EstimateRequest& req,
                                     const EstimatePlan& plan,
                                     RequestRecord& record) {
  EstimateReply reply;
  reply.population_id = req.population_id;
  reply.planned_rounds = record.planned_rounds;
  reply.retries = record.retries;
  reply.backoff_slots = record.backoff_slots;
  std::lock_guard lock(entry.mutex);
  chan::SortedPetChannel& channel = *entry.channel;
  channel.reset_ledger();
  const core::RoundGate gate = [&](std::uint64_t /*rounds_done*/) {
    return !draining.load(std::memory_order_relaxed);
  };

  if (plan.robust) {
    const core::RobustEstimateResult result =
        plan.robust->estimate_with_rounds(channel, plan.fit_rounds, req.seed,
                                          gate);
    reply.n_hat = result.base.n_hat;
    reply.ci_lo = result.interval.lo;
    reply.ci_hi = result.interval.hi;
    reply.rounds = result.base.rounds;
    reply.truncated = result.base.truncated ? 1 : 0;
    reply.health = static_cast<std::uint8_t>(result.diagnostic.health);
    // Voting re-reads are channel slots like any other: total_slots()
    // already counts them (retry_slots only tags which ones they were).
    reply.query_slots = result.base.ledger.total_slots();
    if (result.retry_budget_exhausted) {
      record.degrade_mask |= kDegradeRetryBudget;
    }
    if (result.diagnostic.contract_at_risk()) {
      record.degrade_mask |= kDegradeHealth;
    }
  } else {
    const core::EstimateResult result = plan.vanilla->estimate_with_rounds(
        channel, plan.fit_rounds, req.seed, gate);
    reply.n_hat = result.n_hat;
    const core::ConfidenceInterval interval =
        core::confidence_interval(result, req.delta);
    reply.ci_lo = interval.lo;
    reply.ci_hi = interval.hi;
    reply.rounds = result.rounds;
    reply.truncated = result.truncated ? 1 : 0;
    reply.query_slots = result.ledger.total_slots();
  }
  channel.flush_obs();
  if (reply.truncated != 0) record.degrade_mask |= kDegradeTruncated;
  if (plan.fit_rounds < record.planned_rounds) {
    record.degrade_mask |= kDegradeFitShort;
  }
  reply.degraded = record.degrade_mask != 0 ? 1 : 0;
  record.rounds = reply.rounds;
  record.query_slots = reply.query_slots;
  record.latency_slots = record.backoff_slots + record.query_slots;
  return reply;
}

/// Publish stage: store a computed reply with the record that charged it,
/// so a later hit folds exactly what this miss folded.
void publish(ResultCache& cache, const ResultCache::Key& key,
             const std::vector<std::uint8_t>& payload,
             const RequestRecord& record) {
  if (!cache.enabled()) return;
  const std::size_t evicted = cache.insert(key, payload, record);
  if (obs::counters_enabled()) {
    if (evicted > 0) obs::svc_cache_instruments().evictions.add(evicted);
    obs::svc_cache_instruments().bytes.set(
        static_cast<double>(cache.stats().bytes));
  }
}

}  // namespace

void ServiceConfig::validate() const {
  retry.validate();
  link_faults.validate();
  expects(max_inflight >= 1, "ServiceConfig: max_inflight must be >= 1");
  expects(shards <= 64, "ServiceConfig: shards must be in [0, 64]");
  expects(vote_reads >= 1 && vote_reads <= 15,
          "ServiceConfig: vote_reads must be in [1, 15]");
  expects(vote_quorum >= 1 && vote_quorum <= vote_reads,
          "ServiceConfig: vote_quorum must be in [1, vote_reads]");
  // Every record plus the u32 count must fit one kFlightDump payload
  // (kMaxPayload).
  expects(flight_capacity >= 1 && flight_capacity <= 8192,
          "ServiceConfig: flight_capacity must be in [1, 8192]");
}

unsigned ServiceConfig::resolved_worker_threads() const noexcept {
  return worker_threads != 0 ? worker_threads
                             : runtime::ThreadPool::hardware_threads();
}

unsigned ServiceConfig::resolved_shards() const noexcept {
  return shards != 0 ? shards : derive_shard_count(resolved_worker_threads());
}

EstimationService::EstimationService(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.registry, config_.resolved_shards()),
      cache_(ResultCacheConfig{config_.cache_entries, config_.cache_bytes}),
      flight_(config_.flight_capacity) {
  config_.validate();
  shards_ = std::make_unique<ShardSet>(config_.resolved_shards(),
                                       config_.resolved_worker_threads(),
                                       config_.max_inflight);
  // Touch the service bundles so their names exist (at zero) in every
  // export — obscheck's --require probes and Prometheus scrapes see the
  // full catalogue even before the first request.
  (void)obs::svc_instruments();
  (void)obs::svc_pop_instruments();
  (void)obs::svc_conn_instruments();
  (void)obs::svc_cache_instruments();
  (void)obs::svc_shard_instruments();
}

EstimationService::~EstimationService() {
  begin_shutdown();
  // ~ShardSet drains every shard pool: all submitted requests resolve
  // before we return.
  shards_.reset();
}

void EstimationService::begin_shutdown() noexcept {
  draining_.store(true, std::memory_order_release);
}

void EstimationService::note_malformed_frame() noexcept {
  malformed_.fetch_add(1, std::memory_order_relaxed);
  resyncs_.fetch_add(1, std::memory_order_relaxed);
  if (obs::counters_enabled()) {
    obs::svc_instruments().frame_malformed.add();
    obs::svc_conn_instruments().resyncs.add();
  }
}

void EstimationService::note_connection_opened() noexcept {
  conn_opened_.fetch_add(1, std::memory_order_relaxed);
  if (obs::counters_enabled()) obs::svc_conn_instruments().opened.add();
}

void EstimationService::note_connection_closed() noexcept {
  conn_closed_.fetch_add(1, std::memory_order_relaxed);
  if (obs::counters_enabled()) obs::svc_conn_instruments().closed.add();
}

void EstimationService::note_bytes_received(std::size_t bytes) noexcept {
  bytes_rx_.fetch_add(bytes, std::memory_order_relaxed);
  if (obs::counters_enabled()) obs::svc_conn_instruments().bytes_rx.add(bytes);
}

void EstimationService::note_frame_received() noexcept {
  frames_rx_.fetch_add(1, std::memory_order_relaxed);
  if (obs::counters_enabled()) obs::svc_conn_instruments().frames_rx.add();
}

void EstimationService::note_frame_sent(std::size_t wire_bytes) noexcept {
  frames_tx_.fetch_add(1, std::memory_order_relaxed);
  bytes_tx_.fetch_add(wire_bytes, std::memory_order_relaxed);
  if (obs::counters_enabled()) {
    obs::svc_conn_instruments().frames_tx.add();
    obs::svc_conn_instruments().bytes_tx.add(wire_bytes);
  }
}

EstimationService::ConnectionTotals EstimationService::connection_totals()
    const noexcept {
  ConnectionTotals totals;
  totals.opened = conn_opened_.load(std::memory_order_relaxed);
  totals.closed = conn_closed_.load(std::memory_order_relaxed);
  totals.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  totals.frames_tx = frames_tx_.load(std::memory_order_relaxed);
  totals.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  totals.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  totals.resyncs = resyncs_.load(std::memory_order_relaxed);
  return totals;
}

EstimationService::InflightHold::InflightHold(EstimationService& service,
                                              std::size_t slots) noexcept
    : service_(service), slots_(slots), all_shards_(true) {
  for (unsigned shard = 0; shard < service_.shards_->count(); ++shard) {
    for (std::size_t i = 0; i < slots_; ++i) {
      (void)service_.shards_->acquire(shard);
    }
  }
}

EstimationService::InflightHold::InflightHold(
    EstimationService& service, std::size_t slots,
    std::uint64_t population_id) noexcept
    : service_(service),
      slots_(slots),
      shard_(service.shards_->route(population_id)) {
  for (std::size_t i = 0; i < slots_; ++i) {
    (void)service_.shards_->acquire(shard_);
  }
}

EstimationService::InflightHold::~InflightHold() {
  if (all_shards_) {
    for (unsigned shard = 0; shard < service_.shards_->count(); ++shard) {
      for (std::size_t i = 0; i < slots_; ++i) {
        service_.shards_->release(shard);
      }
    }
  } else {
    for (std::size_t i = 0; i < slots_; ++i) {
      service_.shards_->release(shard_);
    }
  }
}

unsigned EstimationService::route_shard(const Frame& request) const noexcept {
  switch (static_cast<CommandId>(request.command)) {
    case CommandId::kEstimate:
    case CommandId::kRegister:
    case CommandId::kUnregister: {
      // All three payloads lead with the population id (u64 LE); peeking it
      // here instead of fully parsing keeps routing O(1).  Short payloads
      // fall through to shard 0 and fail parsing inside the handler.
      if (request.payload.size() >= 8) {
        std::uint64_t id = 0;
        std::memcpy(&id, request.payload.data(), sizeof(id));
        return shards_->route(id);
      }
      return 0;
    }
    default:
      return 0;  // control plane
  }
}

std::string EstimationService::note_shed(const Frame& request,
                                         StatusCode status, unsigned shard) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  if (status == StatusCode::kResourceExhausted) {
    shards_->note_shed(shard);
    if (obs::counters_enabled()) obs::svc_shard_instruments().shed.add();
  }
  if (obs::counters_enabled()) obs::svc_instruments().req_shed.add();

  RequestRecord record;
  record.request_id = derive_request_id(request);
  record.command = request.command;
  record.status = static_cast<std::uint16_t>(status);
  record.degrade_mask = kDegradeShed;
  record.shard = static_cast<std::uint16_t>(shard);
  if (static_cast<CommandId>(request.command) == CommandId::kEstimate) {
    if (const auto req = parse_estimate_request(request.payload)) {
      record.population_id = req->population_id;
      if (const auto entry = registry_.find(req->population_id)) {
        fold(entry->stats, record, 0);
      }
    }
  }
  flight_.record(record);
  return request_id_suffix(record.request_id);
}

std::future<Frame> EstimationService::submit(Frame request) {
  const auto command = static_cast<CommandId>(request.command);
  const unsigned shard = route_shard(request);
  if (draining()) {
    const std::string suffix =
        note_shed(request, StatusCode::kShuttingDown, shard);
    return ready_future(ready_error(command, StatusCode::kShuttingDown,
                                    "service draining" + suffix));
  }
  // Optimistic admission against the routed shard's budget: grab a slot,
  // give it back if the shard was over its cap.  Monitor/ping and the
  // observability exports are control-plane and always admitted — an
  // operator must be able to observe an overloaded server.
  const bool control_plane =
      command == CommandId::kPing || command == CommandId::kMonitor ||
      command == CommandId::kMetrics || command == CommandId::kFlightDump;
  const std::size_t occupied = shards_->acquire(shard);
  if (!control_plane && occupied > shards_->max_inflight_per_shard()) {
    shards_->release(shard);
    const std::string suffix =
        note_shed(request, StatusCode::kResourceExhausted, shard);
    if (obs::counters_enabled()) {
      obs::svc_instruments().queue_depth.set(
          static_cast<double>(shards_->total_inflight()));
      obs::svc_shard_instruments().depth.set(
          static_cast<double>(shards_->max_inflight_depth()));
    }
    return ready_future(
        ready_error(command, StatusCode::kResourceExhausted,
                    "shard inflight cap reached; retry with backoff" + suffix));
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::counters_enabled()) {
    obs::svc_instruments().req_accepted.add();
    obs::svc_instruments().queue_depth.set(
        static_cast<double>(shards_->total_inflight()));
    obs::svc_shard_instruments().depth.set(
        static_cast<double>(shards_->max_inflight_depth()));
  }

  auto promise = std::make_shared<std::promise<Frame>>();
  std::future<Frame> future = promise->get_future();
  const auto enqueued = std::chrono::steady_clock::now();
  shards_->submit(shard, [this, promise, enqueued, shard,
                          request = std::move(request)]() mutable {
    const auto queue_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - enqueued);
    Frame response = handle_request(
        request, static_cast<std::uint64_t>(queue_us.count()), shard);
    // All service-state bookkeeping must precede set_value: the moment the
    // promise is fulfilled the caller's future.get() returns and the caller
    // may destroy the service — ~EstimationService nulls shards_ before the
    // pool drain joins this worker, so touching `this` after set_value is a
    // use-after-reset race.
    shards_->release(shard);
    if (obs::counters_enabled()) {
      obs::svc_instruments().queue_depth.set(
          static_cast<double>(shards_->total_inflight()));
      obs::svc_shard_instruments().depth.set(
          static_cast<double>(shards_->max_inflight_depth()));
      obs::svc_shard_instruments().steal.set(
          static_cast<double>(shards_->stolen_total()));
    }
    promise->set_value(std::move(response));
  });
  return future;
}

Frame EstimationService::handle(const Frame& request) {
  // Direct path: route the same way submit() would so flight records carry
  // the same shard stamp either way.
  return handle_request(request, 0, route_shard(request));
}

Frame EstimationService::handle_request(const Frame& request,
                                        std::uint64_t queue_us,
                                        unsigned shard) {
  const auto started = std::chrono::steady_clock::now();
  const auto command = static_cast<CommandId>(request.command);

  // Every request gets a deterministic content-addressed ID (flight.hpp)
  // and leaves one flight-recorder record behind; under full tracing the
  // ID also becomes the span's trial coordinate so JSONL traces and
  // kFlightDump records join on it.
  RequestRecord record;
  record.request_id = derive_request_id(request);
  record.command = request.command;
  record.queue_us = queue_us;
  record.shard = static_cast<std::uint16_t>(shard);
  std::optional<obs::ScopedSpan> span;
  if (obs::full_enabled()) {
    obs::set_trace_trial(record.request_id);
    span.emplace("svc.request");
    span->add("request_id",
              obs::json_token(format_request_id(record.request_id)));
    span->add("command", obs::json_token(to_string(command)));
  }

  Frame response;
  if (request.ver_major != kProtocolMajor) {
    if (obs::counters_enabled()) {
      obs::svc_instruments().frame_version_skew.add();
      obs::svc_instruments().req_rejected.add();
    }
    response = ready_error(command, StatusCode::kIncompatibleVersion,
                           "protocol major version mismatch");
  } else {
    switch (command) {
      case CommandId::kPing: response = handle_ping(request); break;
      case CommandId::kRegister: response = handle_register(request); break;
      case CommandId::kUnregister:
        response = handle_unregister(request);
        break;
      case CommandId::kEstimate:
        response = handle_estimate(request, record);
        break;
      case CommandId::kMonitor: response = handle_monitor(request); break;
      case CommandId::kMetrics:
        response = handle_metrics(request, record);
        break;
      case CommandId::kFlightDump:
        response = handle_flight_dump(request);
        break;
      default:
        if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
        response = ready_error(command, StatusCode::kUnknownCommand,
                               "unknown command id");
        break;
    }
  }

  record.status = response.status;
  if (record.status ==
      static_cast<std::uint16_t>(StatusCode::kResourceExhausted)) {
    record.degrade_mask |= kDegradeShed;
  }

  completed_.fetch_add(1, std::memory_order_relaxed);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  record.handle_us = static_cast<std::uint64_t>(elapsed.count());
  if (obs::counters_enabled()) {
    obs::svc_instruments().req_completed.add();
    obs::svc_instruments().latency_us.observe(
        static_cast<double>(elapsed.count()));
  }
  if (span) {
    span->add("status", obs::json_token(to_string(
                            static_cast<StatusCode>(record.status))));
    span->add("population", std::to_string(record.population_id));
    span->add("degrade_mask", std::to_string(record.degrade_mask));
  }
  flight_.record(record);
  return response;
}

Frame EstimationService::handle_ping(const Frame& request) {
  (void)request;
  return make_response(CommandId::kPing,
                       static_cast<std::uint16_t>(StatusCode::kOk));
}

Frame EstimationService::handle_register(const Frame& request) {
  const auto req = parse_register_request(request.payload);
  if (!req) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::counters_enabled()) obs::svc_instruments().frame_malformed.add();
    return ready_error(CommandId::kRegister, StatusCode::kMalformedFrame,
                       "register payload did not parse");
  }
  switch (registry_.register_population(req->population_id, req->tag_count,
                                        req->population_seed)) {
    case PopulationRegistry::RegisterOutcome::kRegistered: {
      RegisterReply reply;
      reply.population_id = req->population_id;
      reply.tag_count = req->tag_count;
      return make_response(CommandId::kRegister,
                           static_cast<std::uint16_t>(StatusCode::kOk),
                           encode(reply));
    }
    case PopulationRegistry::RegisterOutcome::kAlreadyExists:
      if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
      return ready_error(CommandId::kRegister, StatusCode::kAlreadyExists,
                         "population id already registered");
    case PopulationRegistry::RegisterOutcome::kFull:
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (obs::counters_enabled()) obs::svc_instruments().req_shed.add();
      return ready_error(CommandId::kRegister, StatusCode::kResourceExhausted,
                         "population registry full");
    case PopulationRegistry::RegisterOutcome::kInvalidRequest:
      if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
      return ready_error(CommandId::kRegister, StatusCode::kInvalidArgument,
                         "tag count out of range");
  }
  return ready_error(CommandId::kRegister, StatusCode::kInternal,
                     "unreachable register outcome");
}

Frame EstimationService::handle_unregister(const Frame& request) {
  const auto req = parse_unregister_request(request.payload);
  if (!req) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::counters_enabled()) obs::svc_instruments().frame_malformed.add();
    return ready_error(CommandId::kUnregister, StatusCode::kMalformedFrame,
                       "unregister payload did not parse");
  }
  if (!registry_.unregister_population(req->population_id)) {
    if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
    return ready_error(CommandId::kUnregister, StatusCode::kNotFound,
                       "population id not registered");
  }
  return make_response(CommandId::kUnregister,
                       static_cast<std::uint16_t>(StatusCode::kOk));
}

Frame EstimationService::handle_monitor(const Frame& request) {
  (void)request;
  return make_response(CommandId::kMonitor,
                       static_cast<std::uint16_t>(StatusCode::kOk),
                       encode(stats()));
}

MonitorReply EstimationService::stats() const {
  // Single source of truth: the degraded / deadline-miss / retry totals
  // are folded from the same per-population cells the kMetrics export
  // renders, so the two commands can never drift apart.
  const PopulationStatsSnapshot pops = registry_.fold_stats();
  MonitorReply reply;
  reply.populations = registry_.size();
  reply.inflight = shards_->total_inflight();
  reply.accepted = accepted_.load(std::memory_order_relaxed);
  reply.completed = completed_.load(std::memory_order_relaxed);
  reply.shed = shed_.load(std::memory_order_relaxed);
  reply.degraded = pops.degraded;
  reply.deadline_misses = pops.deadline_misses;
  reply.retries = pops.retries;
  reply.malformed_frames = malformed_.load(std::memory_order_relaxed);
  return reply;
}

Frame EstimationService::handle_metrics(const Frame& request,
                                        RequestRecord& record) {
  const auto req = parse_metrics_request(request.payload);
  if (!req) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::counters_enabled()) obs::svc_instruments().frame_malformed.add();
    return ready_error(CommandId::kMetrics, StatusCode::kMalformedFrame,
                       "metrics payload did not parse");
  }
  switch (static_cast<MetricsScope>(req->scope)) {
    case MetricsScope::kFull:
      return make_response(
          CommandId::kMetrics, static_cast<std::uint16_t>(StatusCode::kOk),
          utf8_bytes(render_metrics_document(*this, false)));
    case MetricsScope::kDeterministic:
      return make_response(
          CommandId::kMetrics, static_cast<std::uint16_t>(StatusCode::kOk),
          utf8_bytes(render_metrics_document(*this, true)));
    case MetricsScope::kPopulation: {
      record.population_id = req->population_id;
      const auto entry = registry_.find(req->population_id);
      if (entry == nullptr) {
        if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
        return ready_error(CommandId::kMetrics, StatusCode::kNotFound,
                           "population id not registered");
      }
      PopulationStatsSnapshot snap;
      snap.accumulate(entry->stats);
      return make_response(
          CommandId::kMetrics, static_cast<std::uint16_t>(StatusCode::kOk),
          utf8_bytes(render_population_document(req->population_id, snap)));
    }
  }
  if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
  return ready_error(CommandId::kMetrics, StatusCode::kInvalidArgument,
                     "unknown metrics scope");
}

Frame EstimationService::handle_flight_dump(const Frame& request) {
  const auto req = parse_flight_dump_request(request.payload);
  if (!req) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::counters_enabled()) obs::svc_instruments().frame_malformed.add();
    return ready_error(CommandId::kFlightDump, StatusCode::kMalformedFrame,
                       "flight-dump payload did not parse");
  }
  FlightDumpReply reply;
  reply.records = flight_.dump(req->request_id, req->max_records);
  return make_response(CommandId::kFlightDump,
                       static_cast<std::uint16_t>(StatusCode::kOk),
                       encode(reply));
}

Frame EstimationService::handle_estimate(const Frame& request,
                                         RequestRecord& record) {
  // --- Parse and validate: refusals here never reach a population --------
  const auto req = parse_estimate_request(request.payload);
  if (!req) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::counters_enabled()) obs::svc_instruments().frame_malformed.add();
    return ready_error(CommandId::kEstimate, StatusCode::kMalformedFrame,
                       "estimate payload did not parse");
  }
  record.population_id = req->population_id;
  if (!valid_fraction(req->epsilon) || !valid_fraction(req->delta) ||
      req->robust > 1) {
    if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
    return ready_error(CommandId::kEstimate, StatusCode::kInvalidArgument,
                       "epsilon/delta must be in (0, 1); robust in {0, 1}");
  }
  const auto entry = registry_.find(req->population_id);
  if (entry == nullptr) {
    if (obs::counters_enabled()) obs::svc_instruments().req_rejected.add();
    return ready_error(CommandId::kEstimate, StatusCode::kNotFound,
                       "population id not registered");
  }

  // From here on every outcome is folded exactly once.
  const auto refuse = [&](const Refusal& refusal) {
    record.status = static_cast<std::uint16_t>(refusal.status);
    record.latency_slots = record.backoff_slots;
    fold(entry->stats, record, req->deadline_slots);
    if (obs::counters_enabled()) {
      if (refusal.status == StatusCode::kUnavailable) {
        obs::svc_instruments().retry_exhausted.add();
      }
      obs::svc_instruments().req_rejected.add();
    }
    return ready_error(CommandId::kEstimate, refusal.status,
                       refusal.detail + request_id_suffix(record.request_id));
  };

  // --- Cache → link retry → deadline plan → run → publish -----------------
  const ResultCache::Key key = cache_key(*req, entry->epoch, config_);
  std::vector<std::uint8_t> payload;
  if (!lookup_cached(cache_, key, payload, record)) {
    if (const auto refusal = retry_link(config_, *req, record)) {
      return refuse(*refusal);
    }
    const EstimatePlan plan = plan_rounds(config_, *req, record);
    if (plan.fit_rounds == 0) {
      return refuse({StatusCode::kDeadlineExceeded,
                     "deadline budget cannot fit a single round"});
    }
    payload = encode(run_plan(draining_, *entry, *req, plan, record));
    // Publish only replies that are pure functions of the request: only the
    // drain flag truncates a round loop, and its bytes are ones an
    // identical future request would not reproduce.
    if ((record.degrade_mask & kDegradeTruncated) == 0) {
      publish(cache_, key, payload, record);
    }
  }
  record.status = static_cast<std::uint16_t>(StatusCode::kOk);
  fold(entry->stats, record, req->deadline_slots);
  if (obs::full_enabled()) {
    obs::trace_event(
        "svc.estimate",
        {{"population", std::to_string(req->population_id)},
         {"rounds", std::to_string(record.rounds)},
         {"planned", std::to_string(record.planned_rounds)},
         {"degraded", std::to_string(record.degrade_mask != 0 ? 1 : 0)},
         {"retries", std::to_string(record.retries)},
         {"cache_hit", std::to_string(record.cache_hit)}});
  }
  return make_response(CommandId::kEstimate,
                       static_cast<std::uint16_t>(StatusCode::kOk),
                       std::move(payload));
}

}  // namespace pet::svc
