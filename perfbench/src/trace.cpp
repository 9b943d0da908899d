#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t b = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t e = std::min(spans[c].end_ns, s.end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    SelfTime& t = out[s.name];
    const auto duration = static_cast<double>(s.end_ns - s.start_ns);
    t.count += 1;
    t.total_ns += duration;
    t.self_ns += duration - static_cast<double>(covered);
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  // Buffers live as long as the process-wide tracer, so the cached pointer
  // never dangles; clear() empties them in place.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1 << 12);
    buffer = buffers_.back().get();
  }
  return *buffer;
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers_) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (SpanRecord record : buffer->spans) {
      if (record.parent >= 0) record.parent += base;
      out.push_back(record);
    }
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->open = -1;
  }
}

Span::Span(const char* name, std::uint64_t id) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  buffer_ = &tracer.local();
  index_ = static_cast<std::int64_t>(buffer_->spans.size());
  SpanRecord record;
  record.name = name;
  record.thread = buffer_->thread;
  record.id = id;
  record.parent = buffer_->open;
  record.start_ns = now_ns();
  buffer_->spans.push_back(record);
  buffer_->open = index_;
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  SpanRecord& record = buffer_->spans[static_cast<std::size_t>(index_)];
  record.end_ns = now_ns();
  buffer_->open = record.parent;
}

void record_span(const char* name, std::uint64_t id, std::int64_t start_ns,
                 std::int64_t end_ns) {
  Tracer::Buffer& buffer = Tracer::instance().local();
  SpanRecord record;
  record.name = name;
  record.thread = buffer.thread;
  record.id = id;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.parent = buffer.open;
  buffer.spans.push_back(record);
}

void write_jsonl(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"thread\":" << s.thread
        << ",\"id\":" << s.id << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
  }
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
