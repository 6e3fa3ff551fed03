// Canonical, versioned text serialization for sim::SimResult.
//
// Counterpart of edc/spec/serialize for the *output* side of a simulation:
// every field of the result bundle — energy ledger, MCU metrics, NVM
// counters, state transitions, probe waveforms — round-trips through text
// bit-identically (doubles via std::to_chars shortest form). This is the
// row format of the sweep cache (edc/sweep/cache): a cached point replays
// exactly the bytes a fresh simulation would produce.
//
// SimResult, McuMetrics and StateChange each have one field list in
// result_io.cpp that both directions run (see edc/common/canon.h): a field
// is added by one line in its record's field list, plus a bump of
// kResultFormatVersion. Bump it whenever the canonical byte stream of an
// existing result would change (new field, reordered field); the cache
// keys its directory layout on this version, so stale entries age out
// instead of misparsing.
#pragma once

#include <string>

#include "edc/sim/fleet_result.h"
#include "edc/sim/simulator.h"

namespace edc::sim {

// v2: SimResult gained the step-mix diagnostics fine_steps / span_steps /
// spans, so cached rows replay the same coverage numbers a fresh
// simulation reports.
// v3: the dead-node skip books one span per cached driver quiet window
// instead of one per step, so `spans` and `span_steps` of the same run
// differ from v2 rows (every other field is unchanged).
inline constexpr int kResultFormatVersion = 3;

/// Canonical byte string of the result (always succeeds).
[[nodiscard]] std::string serialize_result(const SimResult& result);

/// Inverse of serialize_result(). Strict: throws canon::FormatError on
/// unknown fields, wrong version, truncation, or trailing bytes.
[[nodiscard]] SimResult parse_result(const std::string& text);

// ---- fleets ----------------------------------------------------------------

// The FleetResult container is a framing wrapper, not a new row format:
// each node block carries the exact serialize_result() byte stream, length
// prefixed (canon's block framing, shared with the cache entry and the
// serve frames), so a fleet round-trip preserves
// every node result bit-identically and the per-node row format can evolve
// independently behind kResultFormatVersion.
//
//   edc.FleetResult v1\n
//   nodes <N>\n
//   node_bytes <len>\n<len raw bytes of serialize_result(nodes[0])>
//   ... (N blocks total)
inline constexpr int kFleetResultFormatVersion = 1;

/// Canonical byte string of the fleet result (always succeeds).
[[nodiscard]] std::string serialize_fleet_result(const FleetResult& result);

/// Inverse of serialize_fleet_result(). Strict: throws canon::FormatError
/// on bad magic, wrong version, truncated blocks, or trailing bytes.
[[nodiscard]] FleetResult parse_fleet_result(const std::string& text);

}  // namespace edc::sim
