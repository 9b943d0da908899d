// In-memory span tracing for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's layers (nothing inside the program is instrumented).  Each span
// has a name, start and end on the steady clock, the span that was open on
// the same thread when it began (its parent), and an identifier shared by
// every span of one request or trial.  Records go to per-thread buffers, so
// recording takes no lock; collect() merges them when the run ends, and
// write_jsonl() writes them out.  While disabled, a Span costs one relaxed
// atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string: layer.operation
  std::uint32_t thread = 0;
  std::uint64_t id = 0;      ///< request / trial identifier
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same record vector
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< total minus the time children cover
};

/// Per-name totals.  A span's self time is its duration minus the length
/// of the union of its children's intervals, clipped to its own interval.
[[nodiscard]] std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans);

[[nodiscard]] std::int64_t now_ns() noexcept;

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// All spans recorded so far, parents rebased to the merged vector.
  /// Call only while no thread is recording.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Drop recorded spans (buffers are kept for their threads).
  void clear();

  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::int64_t open = -1;  ///< innermost open span on this thread
  };
  /// The calling thread's buffer, created on first use.
  Buffer& local();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on the calling thread; a no-op while tracing is disabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  std::int64_t index_ = -1;
};

/// Record a finished span on the calling thread (for spans whose start and
/// end happen on different threads, such as an open-loop request sent by
/// one thread and answered on another).  Records even while disabled.
void record_span(const char* name, std::uint64_t id, std::int64_t start_ns,
                 std::int64_t end_ns);

/// One JSON object per span, one per line.
void write_jsonl(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
