// Wire protocol of the sweep service: line-oriented frames carrying
// canonical spec / result text as length-prefixed raw blocks.
//
// The determinism stack *is* the wire format: a request point is the
// canonical spec serialization (spec::serialize — the same bytes the cache
// keys on, hashed by spec_hash), and a response row is the canonical
// result serialization (sim::serialize_result — the same bytes a cache
// entry stores). The service therefore promises responses byte-identical
// to a clean serial Runner::run of the same points, warm or cold, faulted
// or not.
//
// Request frame:
//
//   edc.serve v1\n
//   op run|stats|ping|shutdown\n
//   deadline_ms <double>\n          (op run only; line absent = no deadline)
//   points <K>\n                    (op run only)
//   point_bytes <N>\n<N raw bytes>  (x K)
//   end\n
//
// Response frame:
//
//   edc.serve v1\n
//   status ok|busy|error\n
//   error <quoted reason>\n         (status error only)
//   rows <K>\n                      (status ok only)
//   row_bytes <M>\n<M raw bytes>    (x K)
//   stats_bytes <N>\n<N raw bytes>  (status ok only; "key value" lines)
//   end\n
//
// Framing is self-delimiting (the trailing `end` guards against trailing
// garbage), so one TCP connection carries exactly one request/response
// exchange. The `*_bytes` blocks are canon::append_block / read_block.
// Decoding is strict and *bounded*: unknown lines, out-of-order fields,
// short blocks, oversized counts (kMaxPoints) or blocks (kMaxBlockBytes)
// all fail loudly with a reason instead of allocating unbounded memory — a
// malformed or malicious frame costs the daemon one error reply, never its
// heap.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "edc/common/canon.h"

namespace edc::serve {

inline constexpr char kFrameMagic[] = "edc.serve v1";
/// Hard caps the decoder enforces before allocating.
inline constexpr std::size_t kMaxPoints = 4096;
inline constexpr std::size_t kMaxBlockBytes = 16 * 1024 * 1024;

struct Request {
  enum class Op { kRun, kStats, kPing, kShutdown };
  Op op = Op::kRun;
  /// Per-request deadline in milliseconds, measured by the server from
  /// frame receipt; 0 = none. Expiry yields a loud error response.
  double deadline_ms = 0.0;
  /// Canonical spec texts (spec::serialize), one per requested point.
  std::vector<std::string> points;
};

struct Response {
  enum class Status { kOk, kBusy, kError };
  Status status = Status::kOk;
  std::string error;               ///< set when status == kError
  std::vector<std::string> rows;   ///< canonical result texts, point order
  std::string stats_text;          ///< "key value" lines (run tallies /
                                   ///< daemon stats; empty for ping)
};

/// Byte source the decoder pulls frames from: a connected socket
/// (serve::Stream) or an in-memory buffer (StringSource, for tests and
/// tools). The block framing is canon's, shared with the cache entry and
/// fleet result formats.
using ByteSource = canon::ByteSource;
using StringSource = canon::StringSource;

[[nodiscard]] std::string encode_request(const Request& request);
[[nodiscard]] std::string encode_response(const Response& response);

/// Strict bounded decoders: nullopt plus a human-readable `*error` on any
/// malformed, truncated, or oversized frame.
[[nodiscard]] std::optional<Request> read_request(ByteSource& in,
                                                  std::string* error);
[[nodiscard]] std::optional<Response> read_response(ByteSource& in,
                                                    std::string* error);

}  // namespace edc::serve
