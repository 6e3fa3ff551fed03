#include "edc/serve/protocol.h"

#include <array>

#include "edc/common/canon.h"

namespace edc::serve {

namespace {

// Wire names in Request::Op / Response::Status order.
constexpr std::array<std::string_view, 4> kOpNames{"run", "stats", "ping", "shutdown"};
constexpr std::array<std::string_view, 3> kStatusNames{"ok", "busy", "error"};

/// The value of a `key name` line, as its index in `names`.
template <std::size_t N>
std::size_t choice(std::optional<std::string> line, std::string_view key,
                   const std::array<std::string_view, N>& names) {
  const std::string value = canon::line_value(std::move(line), key);
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == value) return i;
  }
  throw canon::FormatError("unknown " + std::string(key) + " '" + value + "'");
}

/// The value of a `key <count>` line, bounded by kMaxPoints before
/// anything is allocated.
std::size_t bounded_count(std::optional<std::string> line, std::string_view key) {
  const std::uint64_t count = canon::parse_u64(canon::line_value(std::move(line), key));
  if (count > kMaxPoints) {
    throw canon::FormatError(std::string(key) + " count exceeds " +
                             std::to_string(kMaxPoints));
  }
  return static_cast<std::size_t>(count);
}

void expect_line(ByteSource& in, std::string_view want) {
  const auto line = in.read_line();
  if (!line || *line != want) {
    throw canon::FormatError("expected '" + std::string(want) + "' line");
  }
}

/// Runs a frame decoder, turning its FormatError into nullopt + `*error`.
template <typename Decode>
auto decode_frame(std::string* error, Decode&& decode) -> std::optional<decltype(decode())> {
  try {
    return decode();
  } catch (const canon::FormatError& failure) {
    if (error != nullptr) *error = failure.what();
    return std::nullopt;
  }
}

}  // namespace

std::string encode_request(const Request& request) {
  std::string out;
  out += kFrameMagic;
  out += '\n';
  out += "op ";
  out += kOpNames[static_cast<std::size_t>(request.op)];
  out += '\n';
  if (request.op == Request::Op::kRun) {
    if (request.deadline_ms > 0.0) {
      out += "deadline_ms " + canon::double_text(request.deadline_ms) + '\n';
    }
    out += "points " + std::to_string(request.points.size()) + '\n';
    for (const std::string& point : request.points) {
      canon::append_block(out, "point_bytes", point);
    }
  }
  out += "end\n";
  return out;
}

std::string encode_response(const Response& response) {
  std::string out;
  out += kFrameMagic;
  out += '\n';
  out += "status ";
  out += kStatusNames[static_cast<std::size_t>(response.status)];
  out += '\n';
  if (response.status == Response::Status::kError) {
    out += "error " + canon::quote(response.error) + '\n';
  }
  if (response.status == Response::Status::kOk) {
    out += "rows " + std::to_string(response.rows.size()) + '\n';
    for (const std::string& row : response.rows) {
      canon::append_block(out, "row_bytes", row);
    }
    canon::append_block(out, "stats_bytes", response.stats_text);
  }
  out += "end\n";
  return out;
}

std::optional<Request> read_request(ByteSource& in, std::string* error) {
  return decode_frame(error, [&in] {
    expect_line(in, kFrameMagic);
    Request request;
    request.op = static_cast<Request::Op>(choice(in.read_line(), "op", kOpNames));
    if (request.op == Request::Op::kRun) {
      auto line = in.read_line();
      if (line && line->rfind("deadline_ms ", 0) == 0) {
        request.deadline_ms =
            canon::parse_double(canon::line_value(std::move(line), "deadline_ms"));
        if (!(request.deadline_ms > 0.0)) {
          throw canon::FormatError("deadline_ms must be positive");
        }
        line = in.read_line();
      }
      request.points.resize(bounded_count(std::move(line), "points"));
      for (std::string& point : request.points) {
        point = canon::read_block(in, "point_bytes", kMaxBlockBytes);
      }
    }
    expect_line(in, "end");
    return request;
  });
}

std::optional<Response> read_response(ByteSource& in, std::string* error) {
  return decode_frame(error, [&in] {
    expect_line(in, kFrameMagic);
    Response response;
    response.status =
        static_cast<Response::Status>(choice(in.read_line(), "status", kStatusNames));
    if (response.status == Response::Status::kError) {
      response.error = canon::unquote(canon::line_value(in.read_line(), "error"));
    }
    if (response.status == Response::Status::kOk) {
      response.rows.resize(bounded_count(in.read_line(), "rows"));
      for (std::string& row : response.rows) {
        row = canon::read_block(in, "row_bytes", kMaxBlockBytes);
      }
      response.stats_text = canon::read_block(in, "stats_bytes", kMaxBlockBytes);
    }
    expect_line(in, "end");
    return response;
  });
}

}  // namespace edc::serve
