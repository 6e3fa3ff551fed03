// In-memory span recording for the traced run.
//
// A Span marks one call the benchmark makes into a library layer: name,
// start, end and the span that caused it (its parent on the same thread).
// Spans are appended to a per-thread buffer only while tracing is switched
// on for that thread, kept in memory, and written once when the benchmark
// ends (Chrome trace-event JSON, loadable in chrome://tracing or Perfetto).
// With tracing off a Span is one thread-local flag test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::tracing {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the collected vector, -1 = root
  std::uint32_t thread = 0;
};

/// Switches span recording on or off for the calling thread.
void set_thread_active(bool active);

class Span {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// All spans recorded so far, across threads, with parent indices rebased
/// into the returned vector. Call after the recording threads have joined.
[[nodiscard]] std::vector<SpanRecord> collect();

/// Self time per span name in milliseconds: each span's duration minus the
/// part its direct children cover.
[[nodiscard]] std::map<std::string, double> self_time_ms(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as Chrome trace-event JSON; false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench::tracing
