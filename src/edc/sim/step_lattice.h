// Step-lattice arithmetic of the per-lane stepping core (sim/lane_core.h).
//
// The simulation loop keeps time on an exact lattice t == dt * step instead
// of accumulating t += dt: summation order then cannot drift the time base,
// so a macro run that jumps spans of whole steps lands on exactly the same
// instants — and the same probe/governor/termination schedule — as the fine
// run it must stay in lock-step with. Deadlines (t_end, the governor
// period) are honoured by capping how many whole steps a quiescent span
// may jump, so a deadline is always *processed* on a fine step whose start
// lies before it.
#pragma once

#include <cmath>
#include <cstdint>

#include "edc/common/units.h"

namespace edc::sim {

/// Number of consecutive steps, starting at lattice index `step`, whose
/// *start* instant dt * k lies strictly before `limit` — i.e. how many
/// steps the loop may take (or skip) before an event scheduled at `limit`
/// must be processed. 0 when the current step already starts at or past
/// the limit.
///
/// The obvious std::ceil((limit - t) / dt) over-claims by one step when
/// the division rounds up across an integer — e.g. step 0, dt = 0.1,
/// limit = 3 * 0.1 (== 0.30000000000000004 in binary64) gives
/// ceil(3.0000000000000004) == 4, claiming the step that starts exactly
/// *on* the limit. The walk-back guard below re-checks the claimed last
/// step's start against the same dt * k lattice the loop itself uses, so
/// a span can never swallow a step the fine loop would have stopped on.
/// (Under-claiming is harmless — the caller just takes a fine step and
/// re-plans — so only the over-claim side needs the guard.)
[[nodiscard]] inline std::uint64_t steps_starting_before(std::uint64_t step,
                                                         Seconds limit,
                                                         Seconds dt) {
  const Seconds t = dt * static_cast<double>(step);
  if (t >= limit) return 0;
  auto n = static_cast<std::uint64_t>(std::ceil((limit - t) / dt));
  while (n > 1 &&
         dt * static_cast<double>(step + (n - 1)) >= limit) {
    --n;
  }
  return n;
}

}  // namespace edc::sim
