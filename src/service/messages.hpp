// pet::svc message schemas: the payloads carried inside svc::Frame.
//
// Encoding discipline: fixed little-endian primitives appended in field
// order, no padding, doubles as IEEE-754 bit patterns.  Each payload's
// layout is its message's field list in messages.cpp, which both encode and
// parse walk.  Every decode is bounds-checked — a short or trailing-garbage
// payload fails parsing (-> MALFORMED_FRAME at the session layer) instead
// of reading uninitialized memory; trailing bytes are malformed, not
// forward compatibility (versioning lives in the frame header).  Requests
// leave Frame::status zero; the response echoes the request's command with
// the outcome StatusCode, and error responses carry a UTF-8 detail string
// as their payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/flight.hpp"
#include "service/frame.hpp"

namespace pet::svc {

enum class CommandId : std::uint16_t {
  kPing = 1,        ///< liveness + version probe; empty payload both ways
  kRegister = 2,    ///< RegisterRequest -> RegisterReply
  kUnregister = 3,  ///< UnregisterRequest -> empty
  kEstimate = 4,    ///< EstimateRequest -> EstimateReply
  kMonitor = 5,     ///< empty -> MonitorReply (service-wide stats)
  // v1.1 additions (observability plane).
  kMetrics = 6,     ///< MetricsRequest -> pet.obs.v1 JSON payload (UTF-8)
  kFlightDump = 7,  ///< FlightDumpRequest -> FlightDumpReply
};

[[nodiscard]] std::string_view to_string(CommandId command) noexcept;

// --- message structs -------------------------------------------------------

struct RegisterRequest {
  std::uint64_t population_id = 0;
  std::uint64_t tag_count = 0;       ///< tags generated deterministically...
  std::uint64_t population_seed = 0; ///< ...from this seed (factory EPCs)
};

struct RegisterReply {
  std::uint64_t population_id = 0;
  std::uint64_t tag_count = 0;
};

struct UnregisterRequest {
  std::uint64_t population_id = 0;
};

struct EstimateRequest {
  std::uint64_t population_id = 0;
  std::uint64_t seed = 0;       ///< estimation seed (derives paths/rounds)
  double epsilon = 0.10;        ///< (ε, δ) accuracy contract requested
  double delta = 0.05;
  /// Deadline as a *slot budget*: the estimate may consume at most this
  /// many reply-window slots, 0 = unlimited.  Slots, not microseconds, so
  /// the degrade decision replays bit-for-bit.
  std::uint64_t deadline_slots = 0;
  std::uint8_t robust = 1;      ///< 1: RobustPetEstimator; 0: vanilla PET
};

struct EstimateReply {
  std::uint64_t population_id = 0;
  double n_hat = 0.0;
  double ci_lo = 0.0;  ///< (1 - δ) interval, widened when degraded
  double ci_hi = 0.0;
  std::uint64_t rounds = 0;          ///< rounds actually executed
  std::uint64_t planned_rounds = 0;  ///< rounds the (ε, δ) plan wanted
  std::uint64_t query_slots = 0;     ///< reply-window slots consumed
  std::uint32_t retries = 0;         ///< transient-fault attempts beyond the first
  std::uint64_t backoff_slots = 0;   ///< total backoff the retries waited
  /// Best-effort flag: set when the reply does NOT carry the full (ε, δ)
  /// contract — the deadline truncated rounds, the retry budget ran dry, or
  /// the channel-health diagnostic widened the interval past ε.
  std::uint8_t degraded = 0;
  std::uint8_t truncated = 0;  ///< deadline stopped the round loop early
  std::uint8_t health = 0;     ///< core::ChannelHealth of the winning attempt
};

/// Wire layout FROZEN at the v1.0 shape (9 u64 fields, 72 bytes): minor
/// version bumps may add commands but never grow this payload, so a v1.0
/// client's exhaustion-checking parser keeps working against a v1.1 petd
/// (pinned by Messages.MonitorReplyWireLayoutFrozenForOldClients).
struct MonitorReply {
  std::uint64_t populations = 0;
  std::uint64_t inflight = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t retries = 0;
  std::uint64_t malformed_frames = 0;
};

/// What slice of the observability plane a kMetrics call wants.
enum class MetricsScope : std::uint8_t {
  kFull = 0,           ///< whole pet.obs.v1 document (deterministic + profile)
  kDeterministic = 1,  ///< Domain::kDeterministic only — byte-identical at
                       ///< any worker_threads for the same request script
  kPopulation = 2,     ///< one population's pet.svc.pop.* slice
};

/// Empty payload is a valid kMetrics request and means scope kFull.
struct MetricsRequest {
  std::uint8_t scope = 0;           ///< MetricsScope
  std::uint64_t population_id = 0;  ///< used by kPopulation, 0 otherwise
};

struct FlightDumpRequest {
  std::uint64_t request_id = 0;   ///< 0: every record; else exact match
  std::uint32_t max_records = 0;  ///< 0: no cap; else newest N matches
};

/// A u32 record count, then each RequestRecord (flight.hpp) as its fixed
/// field list: the fixed-width fields in declaration order, then the v1.2
/// stamp (u16 shard, u8 flags with bit 0 = cache-hit, u8 reserved-zero).
struct FlightDumpReply {
  std::vector<RequestRecord> records;  ///< oldest to newest
};

// --- encode / decode -------------------------------------------------------
// encode_* returns the payload bytes; parse_* returns nullopt on any
// short/overlong/corrupt payload.

[[nodiscard]] std::vector<std::uint8_t> encode(const RegisterRequest& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const RegisterReply& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const UnregisterRequest& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const EstimateRequest& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const EstimateReply& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const MonitorReply& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const MetricsRequest& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const FlightDumpRequest& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const FlightDumpReply& msg);

[[nodiscard]] std::optional<RegisterRequest> parse_register_request(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<RegisterReply> parse_register_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<UnregisterRequest> parse_unregister_request(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<EstimateRequest> parse_estimate_request(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<EstimateReply> parse_estimate_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<MonitorReply> parse_monitor_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<MetricsRequest> parse_metrics_request(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<FlightDumpRequest> parse_flight_dump_request(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::optional<FlightDumpReply> parse_flight_dump_reply(
    const std::vector<std::uint8_t>& payload);

/// Build a request frame (status 0) around an encoded payload.
[[nodiscard]] Frame make_request(CommandId command,
                                 std::vector<std::uint8_t> payload = {});

/// Build a response frame echoing `command` with `status`; error statuses
/// conventionally carry a UTF-8 detail string as payload.
[[nodiscard]] Frame make_response(CommandId command, std::uint16_t status,
                                  std::vector<std::uint8_t> payload = {});
[[nodiscard]] Frame make_error(CommandId command, std::uint16_t status,
                               std::string_view detail);

/// Interpret an error frame's payload as its detail string.
[[nodiscard]] std::string error_detail(const Frame& frame);

}  // namespace pet::svc
