#include "tracing.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "bench_util.h"

namespace perfbench::tracing {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> registry;  // guarded by registry_mutex

thread_local bool tl_active = false;
thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& buffer() {
  if (tl_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::make_unique<ThreadBuffer>());
    tl_buffer = registry.back().get();
    tl_buffer->thread = static_cast<std::uint32_t>(registry.size());
  }
  return *tl_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_thread_active(bool active) { tl_active = active; }

Span::Span(const char* name) {
  if (!tl_active) return;
  ThreadBuffer& buf = buffer();
  SpanRecord record;
  record.name = name;
  record.parent = buf.open.empty() ? -1 : buf.open.back();
  record.thread = buf.thread;
  index_ = static_cast<std::int64_t>(buf.spans.size());
  buf.open.push_back(index_);
  buf.spans.push_back(record);
  buf.spans.back().start_ns = now_ns();
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buf = *tl_buffer;
  buf.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buf.open.pop_back();
}

std::vector<SpanRecord> collect() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  std::vector<SpanRecord> all;
  for (const auto& buf : registry) {
    const auto offset = static_cast<std::int64_t>(all.size());
    for (SpanRecord record : buf->spans) {
      if (record.parent >= 0) record.parent += offset;
      all.push_back(record);
    }
  }
  return all;
}

std::map<std::string, double> self_time_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t own = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    self[spans[i].name] += static_cast<double>(own) * 1e-6;
  }
  return self;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << json_quote(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << json_number(static_cast<double>(span.start_ns - origin) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench::tracing
