// Discrete-time (digitized) reachability.
//
// The paper cites digitization [8] ("What good are digital clocks?") as an
// alternative to dense-time analysis and notes it "poses serious problems
// when the number of clocks or the constants of the timing constraints are
// large".  This engine makes that claim measurable: it explores states
// (location, integer clock valuation) with one clock per enabled event,
// advancing time in one-tick quanta, with per-clock saturation at the
// event's upper bound (bounded counters).
//
// For closed delay intervals on the integer tick grid, digitization is
// exact for reachability of discrete states: the verdicts must match the
// zone engine — a property test checks it.  The cost difference (states
// scale with the magnitude of the constants) vs zones (polyhedra) vs
// relative timing (untimed graph + derived constraints) is reported by the
// engines bench.
#pragma once

#include "rtv/ts/compose.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {

/// What the digitized search needs over an already-built system; the
/// "discrete" engine fills it from its EngineRequest.
struct DiscreteVerifyOptions {
  /// Hard ceiling on explored (location, valuation) configs, enforced at
  /// insertion: the run never retains more configs than this.
  std::size_t max_states = kDefaultMaxConfigs;
  /// Worker threads for the digitized BFS (0 = one per hardware thread,
  /// 1 = sequential).  Verdicts, violation choice and counterexample
  /// traces are identical for every job count: exploration is
  /// layer-synchronous and the first violation in BFS order wins.
  std::size_t jobs = 1;
  /// The run's clock (deadline, cancellation, progress, elapsed-seconds
  /// origin), so a composition built under it counts against the same
  /// budget.  Null runs without a deadline.
  RunClock* clock = nullptr;
};

/// Digitized exploration over an already-built, untruncated system,
/// checking `properties` plus the containment `chokes`: the "discrete"
/// engine's search.  states_explored counts (location, valuation) configs;
/// trace_labels carry firings only (delay ticks are implicit, as in the
/// zone engine's traces); the stats are DiscreteEngineStats.
EngineResult discrete_explore(
    const TransitionSystem& ts,
    const std::vector<const SafetyProperty*>& properties,
    std::span<const ChokeRecord> chokes,
    const DiscreteVerifyOptions& options = {});

}  // namespace rtv
