#include "service/messages.hpp"

#include <bit>

namespace pet::svc {

std::string_view to_string(CommandId command) noexcept {
  switch (command) {
    case CommandId::kPing: return "ping";
    case CommandId::kRegister: return "register";
    case CommandId::kUnregister: return "unregister";
    case CommandId::kEstimate: return "estimate";
    case CommandId::kMonitor: return "monitor";
    case CommandId::kMetrics: return "metrics";
    case CommandId::kFlightDump: return "flight-dump";
  }
  return "unknown";
}

namespace {

// --- primitive wire I/O ----------------------------------------------------
// One overload per primitive on each side, so a message's field list reads
// and writes through the same calls.

class WireWriter {
 public:
  void operator()(std::uint8_t v) { put(v, 1); }
  void operator()(std::uint16_t v) { put(v, 2); }
  void operator()(std::uint32_t v) { put(v, 4); }
  void operator()(std::uint64_t v) { put(v, 8); }
  void operator()(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put(std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> out_;
};

/// Cursor over a payload.  A read past the end trips the reader for good
/// and yields zero, so a parse reads every field unconditionally and checks
/// exhausted() once at the end.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& payload) noexcept
      : data_(payload.data()), size_(payload.size()) {}

  void operator()(std::uint8_t& v) noexcept { v = get<std::uint8_t>(); }
  void operator()(std::uint16_t& v) noexcept { v = get<std::uint16_t>(); }
  void operator()(std::uint32_t& v) noexcept { v = get<std::uint32_t>(); }
  void operator()(std::uint64_t& v) noexcept { v = get<std::uint64_t>(); }
  void operator()(double& v) noexcept {
    v = std::bit_cast<double>(get<std::uint64_t>());
  }

  /// True iff every read fit and every payload byte was consumed.
  [[nodiscard]] bool exhausted() const noexcept {
    return ok_ && pos_ == size_;
  }

 private:
  /// The next sizeof(T) payload bytes as a little-endian T.
  template <class T>
  [[nodiscard]] T get() noexcept {
    if (!ok_ || size_ - pos_ < sizeof(T)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Counts the bytes a field list occupies on the wire.
struct WireSize {
  std::size_t bytes = 0;
  template <class T>
  constexpr void operator()(const T&) noexcept {
    bytes += sizeof(T);
  }
};

// --- field lists -----------------------------------------------------------
// Each payload layout, stated once: the wire order is the call order.
// Growing a payload means editing its list (and the protocol version).

template <class IO>
void fields(IO& io, RegisterRequest& m) {
  io(m.population_id);
  io(m.tag_count);
  io(m.population_seed);
}

template <class IO>
void fields(IO& io, RegisterReply& m) {
  io(m.population_id);
  io(m.tag_count);
}

template <class IO>
void fields(IO& io, UnregisterRequest& m) {
  io(m.population_id);
}

template <class IO>
void fields(IO& io, EstimateRequest& m) {
  io(m.population_id);
  io(m.seed);
  io(m.epsilon);
  io(m.delta);
  io(m.deadline_slots);
  io(m.robust);
}

template <class IO>
void fields(IO& io, EstimateReply& m) {
  io(m.population_id);
  io(m.n_hat);
  io(m.ci_lo);
  io(m.ci_hi);
  io(m.rounds);
  io(m.planned_rounds);
  io(m.query_slots);
  io(m.retries);
  io(m.backoff_slots);
  io(m.degraded);
  io(m.truncated);
  io(m.health);
}

template <class IO>
void fields(IO& io, MonitorReply& m) {
  io(m.populations);
  io(m.inflight);
  io(m.accepted);
  io(m.completed);
  io(m.shed);
  io(m.degraded);
  io(m.deadline_misses);
  io(m.retries);
  io(m.malformed_frames);
}

template <class IO>
void fields(IO& io, MetricsRequest& m) {
  io(m.scope);
  io(m.population_id);
}

template <class IO>
void fields(IO& io, FlightDumpRequest& m) {
  io(m.request_id);
  io(m.max_records);
}

template <class IO>
constexpr void fields(IO& io, RequestRecord& m) {
  io(m.request_id);
  io(m.population_id);
  io(m.command);
  io(m.status);
  io(m.degrade_mask);
  io(m.planned_rounds);
  io(m.rounds);
  io(m.retries);
  io(m.backoff_slots);
  io(m.query_slots);
  io(m.latency_slots);
  io(m.queue_us);
  io(m.handle_us);
  io(m.shard);
  // v1.2 flags byte (bit 0 = cache hit), then a reserved zero byte that
  // keeps the record u32-aligned for future flags.
  std::uint8_t flags = m.cache_hit != 0 ? 1 : 0;
  std::uint8_t reserved = 0;
  io(flags);
  io(reserved);
  m.cache_hit = flags & 1;
}

constexpr std::size_t kRecordWireBytes = [] {
  WireSize size;
  RequestRecord record;
  fields(size, record);
  return size.bytes;
}();

/// Encode through the field list.  `msg` is a copy because one list serves
/// both directions and so takes a mutable reference.
template <class M>
std::vector<std::uint8_t> encode_fields(M msg) {
  WireWriter w;
  fields(w, msg);
  return w.take();
}

/// Parse through the field list: the message must consume the payload
/// exactly.
template <class M>
std::optional<M> parse_fields(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  M msg;
  fields(r, msg);
  if (!r.exhausted()) return std::nullopt;
  return msg;
}

}  // namespace

// --- encode ----------------------------------------------------------------

std::vector<std::uint8_t> encode(const RegisterRequest& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const RegisterReply& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const UnregisterRequest& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const EstimateRequest& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const EstimateReply& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const MonitorReply& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const MetricsRequest& msg) {
  return encode_fields(msg);
}
std::vector<std::uint8_t> encode(const FlightDumpRequest& msg) {
  return encode_fields(msg);
}

std::vector<std::uint8_t> encode(const FlightDumpReply& msg) {
  WireWriter w;
  w(static_cast<std::uint32_t>(msg.records.size()));
  for (RequestRecord record : msg.records) fields(w, record);
  return w.take();
}

// --- parse -----------------------------------------------------------------

std::optional<RegisterRequest> parse_register_request(
    const std::vector<std::uint8_t>& payload) {
  return parse_fields<RegisterRequest>(payload);
}

std::optional<RegisterReply> parse_register_reply(
    const std::vector<std::uint8_t>& payload) {
  return parse_fields<RegisterReply>(payload);
}

std::optional<UnregisterRequest> parse_unregister_request(
    const std::vector<std::uint8_t>& payload) {
  return parse_fields<UnregisterRequest>(payload);
}

std::optional<EstimateRequest> parse_estimate_request(
    const std::vector<std::uint8_t>& payload) {
  return parse_fields<EstimateRequest>(payload);
}

std::optional<EstimateReply> parse_estimate_reply(
    const std::vector<std::uint8_t>& payload) {
  return parse_fields<EstimateReply>(payload);
}

std::optional<MonitorReply> parse_monitor_reply(
    const std::vector<std::uint8_t>& payload) {
  return parse_fields<MonitorReply>(payload);
}

// An empty payload is the v1.1 shorthand for the defaults (kMetrics: the
// full snapshot; kFlightDump: every record), so monitor-style callers need
// not build a body.
std::optional<MetricsRequest> parse_metrics_request(
    const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return MetricsRequest{};
  return parse_fields<MetricsRequest>(payload);
}

std::optional<FlightDumpRequest> parse_flight_dump_request(
    const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return FlightDumpRequest{};
  return parse_fields<FlightDumpRequest>(payload);
}

std::optional<FlightDumpReply> parse_flight_dump_reply(
    const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  std::uint32_t count = 0;
  r(count);
  // Records are fixed-size, so a hostile count field is caught before
  // reserving: the payload must hold exactly `count` records.
  if (payload.size() !=
      sizeof(count) + static_cast<std::size_t>(count) * kRecordWireBytes) {
    return std::nullopt;
  }
  FlightDumpReply msg;
  msg.records.resize(count);
  for (RequestRecord& record : msg.records) fields(r, record);
  if (!r.exhausted()) return std::nullopt;
  return msg;
}

// --- frame helpers ---------------------------------------------------------

Frame make_request(CommandId command, std::vector<std::uint8_t> payload) {
  Frame frame;
  frame.command = static_cast<std::uint16_t>(command);
  frame.status = 0;
  frame.payload = std::move(payload);
  return frame;
}

Frame make_response(CommandId command, std::uint16_t status,
                    std::vector<std::uint8_t> payload) {
  Frame frame;
  frame.command = static_cast<std::uint16_t>(command);
  frame.status = status;
  frame.payload = std::move(payload);
  return frame;
}

Frame make_error(CommandId command, std::uint16_t status,
                 std::string_view detail) {
  std::vector<std::uint8_t> payload(detail.begin(), detail.end());
  return make_response(command, status, std::move(payload));
}

std::string error_detail(const Frame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

}  // namespace pet::svc
