// Breadth-first failure search over a refined system.
//
// Finds the shallowest violation of any property — a bad state, a bad
// firing (persistency), or a choke (an output refused by a monitor during a
// containment check).  The returned trace carries base states and raw
// enabled sets, ready for timing analysis.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "rtv/lazy/refined_system.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/trace.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {

struct Failure {
  Trace trace;
  /// Set when the failing firing has no transition in the composed graph
  /// (a choke); the event is then appended as a virtual final point.
  EventId virtual_event = EventId::invalid();
  std::string description;
};

struct FailureSearchStats {
  std::size_t states_explored = 0;
  /// Refined successors computed (new or already interned).
  std::size_t successors = 0;
  bool truncated = false;
  /// Why the search stopped early (a rtv::stop_reason string, static
  /// storage); null when not truncated.
  const char* stop_reason = nullptr;
};

/// BFS over `sys`; `chokes` (may be empty) come from the composition.
/// Property and choke checks skip firings blocked by the refinement
/// observers — blocked firings are timing-impossible.  `clock` (optional)
/// threads a shared wall-clock deadline / cancellation / progress guard
/// through the loop.
std::optional<Failure> find_failure(
    const RefinedSystem& sys, std::span<const ChokeRecord> chokes,
    std::span<const SafetyProperty* const> properties, std::size_t max_states,
    FailureSearchStats* stats, RunClock* clock = nullptr);

}  // namespace rtv
