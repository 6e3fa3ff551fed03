// Canonical line-oriented text encoding shared by the spec and result
// serializers (edc/spec/serialize, edc/sim/result_io), plus the one block
// framing the cache entry, fleet result and serve frame formats carry
// those texts in.
//
// The format is deliberately minimal: one field per line, two spaces of
// indentation per nesting level, `key value` for scalar fields, `key tag`
// for section headers / variant selectors, and bare numbers for array
// elements. Doubles are printed with std::to_chars (shortest form that
// round-trips exactly, locale-independent) so text -> double -> text is
// the identity for any double the writer produced; strings are quoted with
// C-style escapes. The Reader is strict: it consumes exactly the canonical
// lines in canonical order and throws FormatError on anything else, which
// is what makes the encoded bytes safe to hash and compare.
//
// Field lists: every record is described once, as a function template
// over the IO direction (Writer or Reader):
//
//   template <typename IO>
//   void fields(IO& io, canon::Rec<IO, StorageSpec> s) {
//     io.field("capacitance", s.capacitance);
//     io.field("bleed", s.bleed);
//   }
//
// A Writer writes each line from the member, a Reader reads the same line
// back into it, so the two directions cannot drift apart. Adding a field
// is one line in its record's field list, plus a format-version bump. The
// list is a template, so each direction compiles to straight-line calls:
// no per-field indirection or allocation.
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace edc::canon {

/// Thrown on any deviation from the canonical format (unknown field,
/// wrong order, malformed or out-of-range value, truncation, trailing
/// bytes).
class FormatError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// ---- scalar <-> text ------------------------------------------------------

/// "v<version>", the tag of every versioned container and cache directory.
/// Built by appending: GCC 12 reports a false -Wrestrict positive on
/// `"v" + std::to_string(version)`.
[[nodiscard]] inline std::string version_tag(int version) {
  std::string tag = "v";
  tag += std::to_string(version);
  return tag;
}

/// Shortest exactly-round-tripping decimal form of `v` (std::to_chars).
[[nodiscard]] std::string double_text(double v);

/// Strict inverses; the whole token must be consumed.
[[nodiscard]] double parse_double(std::string_view text);
[[nodiscard]] std::uint64_t parse_u64(std::string_view text);
[[nodiscard]] std::int64_t parse_i64(std::string_view text);

/// parse_u64/parse_i64 narrowed to T; throws FormatError when the value
/// does not fit (never truncates).
template <std::integral T>
[[nodiscard]] T parse_integer(std::string_view text) {
  if constexpr (std::is_signed_v<T>) {
    const std::int64_t v = parse_i64(text);
    if (v < std::numeric_limits<T>::min() || v > std::numeric_limits<T>::max()) {
      throw FormatError("integer out of range: '" + std::string(text) + "'");
    }
    return static_cast<T>(v);
  } else {
    const std::uint64_t v = parse_u64(text);
    if (v > std::numeric_limits<T>::max()) {
      throw FormatError("integer out of range: '" + std::string(text) + "'");
    }
    return static_cast<T>(v);
  }
}

/// C-style quoting for arbitrary byte strings (\" \\ \n \r \t, \xHH for
/// other control bytes) and its inverse.
[[nodiscard]] std::string quote(std::string_view raw);
[[nodiscard]] std::string unquote(std::string_view text);

// ---- canonical writer -----------------------------------------------------

class Writer {
 public:
  static constexpr bool kReads = false;

  /// Opens a section (`key` or `key tag`) and indents subsequent lines.
  void begin(std::string_view key, std::string_view tag = {});
  void end();

  void field(std::string_view key, double v);
  void field(std::string_view key, bool v);
  /// Quoted string value.
  void field(std::string_view key, const std::string& v);
  template <std::integral T>
  void field(std::string_view key, T v) {
    char buffer[kNumberChars];
    open(key, number_text(buffer, v));
  }
  /// A bare array-element line (number only).
  void bare(double v);

  [[nodiscard]] std::string take();

 private:
  // Enough for any 64-bit integer and any shortest-form double.
  static constexpr std::size_t kNumberChars = 32;
  template <typename T>
  static std::string_view number_text(char (&buffer)[kNumberChars], T v) {
    const auto result = std::to_chars(buffer, buffer + kNumberChars, v);
    return std::string_view(buffer, static_cast<std::size_t>(result.ptr - buffer));
  }
  void open(std::string_view key, std::string_view value);

  std::string out_;
  int depth_ = 0;
};

// ---- strict canonical reader ----------------------------------------------

class Reader {
 public:
  static constexpr bool kReads = true;

  /// Splits `text` into lines; every line must end in '\n'.
  explicit Reader(const std::string& text);

  /// Consumes a section header `key` (no tag) and indents.
  void begin(std::string_view key);
  /// Consumes `key tag` and indents; returns the tag.
  std::string_view begin_tagged(std::string_view key);
  void end();

  void field(std::string_view key, double& v);
  void field(std::string_view key, bool& v);
  void field(std::string_view key, std::string& v);
  template <std::integral T>
  void field(std::string_view key, T& v) {
    v = parse_integer<T>(require_value(key));
  }
  /// A bare array-element line.
  [[nodiscard]] double bare_number();

  /// Lines not consumed yet: a count header claiming more elements than
  /// this is truncated, and is rejected before anything is allocated.
  [[nodiscard]] std::size_t remaining() const noexcept { return lines_.size() - pos_; }

  /// Throws unless every line has been consumed.
  void finish() const;

 private:
  std::string_view take(std::string_view key);
  std::string_view require_value(std::string_view key);
  std::string_view next_line();

  std::vector<std::string_view> lines_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---- field-list vocabulary (one definition for both directions) -----------

/// The record type a field list receives: `const T&` when writing, `T&`
/// when reading.
template <typename IO, typename T>
using Rec = std::conditional_t<IO::kReads, T&, const T&>;

/// A section whose header line carries a value: `key <value>` (a count, a
/// node index, a transition time).
template <typename IO, typename T>
void begin_valued(IO& io, std::string_view key, T& value) {
  if constexpr (IO::kReads) {
    const std::string_view text = io.begin_tagged(key);
    if constexpr (std::is_floating_point_v<T>) {
      value = parse_double(text);
    } else {
      value = parse_integer<T>(text);
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    io.begin(key, double_text(value));
  } else {
    io.begin(key, std::to_string(value));
  }
}

/// Opens `key <N>`: the writer emits `n`, the reader returns the stored
/// count, rejecting one larger than the lines left (each element takes at
/// least one line).
template <typename IO>
std::size_t begin_count(IO& io, std::string_view key, std::size_t n) {
  begin_valued(io, key, n);
  if constexpr (IO::kReads) {
    if (n > io.remaining()) {
      throw FormatError("'" + std::string(key) + "' count exceeds the remaining lines");
    }
  }
  return n;
}

/// One enum value <-> its canonical tag.
template <typename E>
struct Tag {
  E value;
  std::string_view name;
};

/// An enum field, written as a bodiless `key tag` section.
template <typename IO, typename E, std::size_t N>
void enumeration(IO& io, std::string_view key, Rec<IO, E> value,
                 const std::array<Tag<E>, N>& tags) {
  if constexpr (IO::kReads) {
    const std::string_view tag = io.begin_tagged(key);
    const Tag<E>* match = nullptr;
    for (const Tag<E>& t : tags) {
      if (t.name == tag) match = &t;
    }
    if (match == nullptr) {
      throw FormatError("unknown " + std::string(key) + " tag: '" + std::string(tag) + "'");
    }
    value = match->value;
  } else {
    const Tag<E>* match = nullptr;
    for (const Tag<E>& t : tags) {
      if (t.value == value) match = &t;
    }
    if (match == nullptr) throw FormatError("unknown " + std::string(key) + " value");
    io.begin(key, match->name);
  }
  io.end();
}

/// Canonical tags of a std::variant's alternatives, in alternative order;
/// an empty tag marks an alternative with no canonical form (an opaque
/// callback), which neither direction accepts.
template <typename V>
using VariantTags = std::array<std::string_view, std::variant_size_v<V>>;

namespace detail {
template <typename V, typename F, std::size_t... I>
void emplace_alternative(V& v, std::size_t index, F& alternative,
                         std::index_sequence<I...>) {
  (void)((index == I ? (alternative(v.template emplace<I>()), true) : false) || ...);
}
}  // namespace detail

/// A variant field: a `key tag` section holding the selected
/// alternative's fields, which `alternative(io-side record)` runs.
template <typename IO, typename V, typename F>
void variant(IO& io, std::string_view key, V& value,
             const VariantTags<std::remove_const_t<V>>& tags, F&& alternative) {
  if constexpr (IO::kReads) {
    const std::string_view tag = io.begin_tagged(key);
    std::size_t index = 0;
    while (index < tags.size() && (tags[index].empty() || tags[index] != tag)) ++index;
    if (index == tags.size()) {
      throw FormatError("unknown " + std::string(key) + " tag: '" + std::string(tag) + "'");
    }
    detail::emplace_alternative(value, index, alternative,
                                std::make_index_sequence<std::variant_size_v<V>>{});
  } else {
    const std::string_view tag = tags[value.index()];
    if (tag.empty()) {
      throw FormatError(std::string(key) + " alternative has no canonical form");
    }
    io.begin(key, tag);
    std::visit(alternative, value);
  }
  io.end();
}

/// An optional field: a `key none|some` section holding the value's
/// fields when engaged.
template <typename IO, typename Opt, typename F>
void optional(IO& io, std::string_view key, Opt& value, std::string_view none,
              std::string_view some, F&& engaged) {
  if constexpr (IO::kReads) {
    const std::string_view tag = io.begin_tagged(key);
    if (tag == some) {
      engaged(value.emplace());
    } else if (tag == none) {
      value.reset();
    } else {
      throw FormatError("unknown " + std::string(key) + " tag: '" + std::string(tag) + "'");
    }
  } else if (value.has_value()) {
    io.begin(key, some);
    engaged(*value);
  } else {
    io.begin(key, none);
  }
  io.end();
}

/// `key <N>` followed by one element per `element(io-side item)` call.
template <typename IO, typename Vec, typename F>
void list(IO& io, std::string_view key, Vec& items, F&& element) {
  const std::size_t n = begin_count(io, key, items.size());
  if constexpr (IO::kReads) {
    items.clear();
    items.resize(n);
  }
  for (auto& item : items) element(item);
  io.end();
}

/// `key <N>` followed by N bare numbers.
template <typename IO, typename Vec>
void numbers(IO& io, std::string_view key, Vec& values) {
  const std::size_t n = begin_count(io, key, values.size());
  if constexpr (IO::kReads) {
    values.assign(n, 0.0);
    for (double& v : values) v = io.bare_number();
  } else {
    for (double v : values) io.bare(v);
  }
  io.end();
}

/// The one waveform codec: `t0`, `dt`, then the `samples` array. `Wave`
/// is any uniformly sampled series with t0()/dt()/samples() accessors and
/// a (t0, dt, samples) constructor (trace::Waveform).
template <typename IO, typename Wave>
void waveform(IO& io, Wave& wave) {
  double t0 = wave.t0();
  double dt = wave.dt();
  io.field("t0", t0);
  io.field("dt", dt);
  if constexpr (IO::kReads) {
    std::vector<double> samples;
    numbers(io, "samples", samples);
    if (samples.size() >= 2 && !(dt > 0.0)) {
      throw FormatError("waveform sample spacing must be positive");
    }
    wave = Wave(t0, dt, std::move(samples));
  } else {
    numbers(io, "samples", wave.samples());
  }
}

// ---- block framing --------------------------------------------------------
// `<key> <N>\n` followed by N raw bytes: how the cache entry, the fleet
// result and the serve frames carry canonical texts without escaping them.

/// Forward-only byte input the framing reads from: an in-memory buffer
/// (StringSource) or a connected socket (serve::Stream). Both report
/// exhaustion as failure instead of throwing.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  /// The next line without its '\n'; nullopt when none is left.
  [[nodiscard]] virtual std::optional<std::string> read_line() = 0;
  [[nodiscard]] virtual bool read_exact(char* dst, std::size_t n) = 0;
  /// Upper bound on the bytes still to come (exact for in-memory input;
  /// a stream does not know, so it reports no bound).
  [[nodiscard]] virtual std::size_t remaining() const noexcept {
    return std::numeric_limits<std::size_t>::max();
  }
};

/// ByteSource over an in-memory buffer.
class StringSource final : public ByteSource {
 public:
  explicit StringSource(std::string bytes) : bytes_(std::move(bytes)) {}
  [[nodiscard]] std::optional<std::string> read_line() override;
  [[nodiscard]] bool read_exact(char* dst, std::size_t n) override;
  [[nodiscard]] std::size_t remaining() const noexcept override {
    return bytes_.size() - pos_;
  }
  /// True when every byte has been consumed (no trailing junk).
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

/// The value of a `key value` line (as ByteSource::read_line returns
/// it); throws FormatError when the line is missing or has another key.
[[nodiscard]] std::string line_value(std::optional<std::string> line,
                                     std::string_view key);

/// Appends `key <N>\n` and the N bytes.
void append_block(std::string& out, std::string_view key, std::string_view bytes);

/// Reads one block. Throws FormatError on a missing or foreign header, a
/// malformed length, a length above `limit` or above in.remaining()
/// (both checked before allocating), or a short read.
[[nodiscard]] std::string read_block(
    ByteSource& in, std::string_view key,
    std::size_t limit = std::numeric_limits<std::size_t>::max());

}  // namespace edc::canon
