// Exact timed reachability of a composed TTS via zone-graph exploration.
//
// Semantics (timed transition systems with inertial delays, [7]): every
// enabled event owns a clock measuring how long it has been enabled; an
// event may fire when its clock is within [lo, hi] and time cannot pass
// beyond any enabled event's upper bound (maximal progress).  Events that
// stay enabled across a firing keep their clocks; newly enabled events (and
// re-enabled ones) restart at 0.
//
// This is the library's ground-truth engine: exponential in clocks, used to
// cross-validate the relative-timing flow and to measure the cost it
// avoids.  The zone search stays sequential whatever EngineRequest::jobs
// says (only composition is sharded): subsumption makes its exploration
// order load-bearing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rtv/ts/compose.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/zone/dbm.hpp"

namespace rtv {

/// Timed reachability over an already-built, untruncated transition
/// system, checking `properties` plus the containment `chokes`: the "zone"
/// engine's search.  `max_zones` caps the stored zones (enforced at
/// insertion, the initial zone always admitted); `clock` is the run's
/// clock.  states_explored counts zones; the stats are ZoneEngineStats.
EngineResult zone_explore(const TransitionSystem& ts,
                          const std::vector<const SafetyProperty*>& properties,
                          std::span<const ChokeRecord> chokes,
                          std::size_t max_zones, RunClock& clock);

}  // namespace rtv
