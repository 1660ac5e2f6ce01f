// Lazy refinement of a transition system by ban observers.
//
// Each refinement iteration of the verification flow (Fig. 3) proves that a
// window of a failure trace is timing-impossible and registers it as a
// *ban observer*: a linear pattern (anchor, e_1 ... e_k) whose completion is
// blocked.  The refined system is the enabling-compatible product of the
// base system with these observers, explored on the fly:
//
//   * enabling is untouched (laziness: timing knowledge delays firings,
//     it never changes what is enabled),
//   * a firing is blocked iff it would complete an observer's window.
//
// Two anchoring flavours (see trace_timing.hpp): `from_start` patterns are
// armed only at the start of a run; anchored patterns re-arm at every visit
// of their anchor state.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "rtv/ts/compose.hpp"
#include "rtv/ts/transition_system.hpp"

namespace rtv {

struct BanObserver {
  bool from_start = false;
  StateId anchor_state;           ///< ignored when from_start
  std::vector<EventId> window;    ///< completing window.back() is blocked
  std::string description;
};

/// A state of the refined system, packed into one run of 32-bit words:
///
///   base | c | k | n | codes[c] | events[k] | waves[k] | gaps[n*n]
///
/// * `base`: the base state id.
/// * `codes`: the active match positions of the observers, each an index
///   into the concatenation of all observer windows; sorted, so states
///   compare canonically.
/// * `events`/`waves`: with the structural relative-timing rule, the
///   *enabling order* of the pending events — event ids grouped into waves
///   (events of one wave became enabled at the same firing instant), oldest
///   wave first — and each entry's wave index.
/// * `gaps`: a capped difference-bound matrix over wave-creation instants,
///   row-major n x n: entry (i, j) bounds t(wave_i) - t(wave_j).  Entries
///   are int32 ticks; INT32_MAX encodes "unbounded".  Extrapolated to the
///   cap so the state space stays finite.
///
/// A PackedState views words owned by a RefinedStateStore or by a caller's
/// buffer.
using PackedState = std::span<const std::uint32_t>;

class RefinedSystem {
 public:
  /// Indexes the base system's enabled events once; `base` must outlive
  /// this object and stay unchanged.
  explicit RefinedSystem(const TransitionSystem& base);

  const TransitionSystem& base() const { return *base_; }

  /// Enable the relative-timing bookkeeping: refined states track a capped
  /// difference-bound matrix over the enabling instants of pending events.
  /// Blocking is *lazy*: a firing of y is pruned only when some refinement
  /// iteration activated the ordering (x before y) and the matrix justifies
  /// it in the current state (y's earliest firing provably exceeds x's
  /// deadline, so urgency makes x fire or disable strictly first).  Each
  /// activated pair is exactly one of the paper's back-annotated relative
  /// timing constraints.
  void enable_age_rule(bool on = true);
  bool age_rule() const { return age_rule_; }

  /// Largest gap cap (one past the largest finite delay bound) the int32
  /// gap entries represent.
  static constexpr Time kMaxGapCap = std::numeric_limits<std::int32_t>::max();
  /// False when the age rule is on and some finite delay bound is too
  /// large for the gap entries; the matrix must not be used then.
  bool gaps_in_range() const { return !age_rule_ || cap_ <= kMaxGapCap; }

  /// Cap on tracked waves: beyond it the two oldest waves merge with
  /// weaker-bound joins (sound — the merged instant covers both).  Smaller
  /// caps would bound the refined state space at the cost of justification
  /// precision; the IPCMOS fork needs at least this much.
  static constexpr std::size_t kMaxWaves = 6;

  /// Activate the ordering "before fires before after while both pending".
  /// Returns false if the pair was already active.
  bool activate_pair(EventId before, EventId after);
  std::size_t num_active_pairs() const { return num_pairs_; }

  /// Register refused outputs (containment chokes): they are enabled in the
  /// implementation even though the composed graph has no transition, so
  /// the wave tracking must include them — both to time their own firing
  /// and to account for their deadlines.
  void set_chokes(std::span<const ChokeRecord> chokes);

  void add_observer(BanObserver obs);
  std::size_t num_observers() const { return observers_.size(); }
  const BanObserver& observer(std::size_t i) const { return observers_[i]; }

  /// Events with a base transition from s (sorted, deduplicated).
  std::span<const EventId> enabled(StateId s) const {
    return {enabled_ev_.data() + enabled_off_[s.value()],
            enabled_ev_.data() + enabled_off_[s.value() + 1]};
  }

  /// Writes the initial state into `out` (previous contents discarded).
  void initial(std::vector<std::uint32_t>& out) const;

  /// True iff firing e from s would complete some observer window or an
  /// activated ordering justifies pruning it.
  bool blocked(PackedState s, EventId e) const;

  /// Writes the successor of s after firing e into `out` (previous contents
  /// discarded; `out` must not hold s).  e must be base-enabled and not
  /// blocked.
  void advance(PackedState s, EventId e, std::vector<std::uint32_t>& out) const;

  static StateId base_of(PackedState s) { return StateId(s[0]); }
  static std::size_t num_waves(PackedState s) { return s[3]; }
  /// Upper bound on t(wave_i) - t(wave_j); kTimeInfinity when unbounded.
  static Time wave_gap(PackedState s, std::size_t i, std::size_t j);

 private:
  /// Base-enabled events plus choked events of this state, sorted.
  std::span<const EventId> pseudo_enabled(StateId s) const;
  bool blocked_by_age(PackedState s, EventId e) const;
  void advance_age(PackedState s, EventId fired, StateId succ,
                   std::vector<std::uint32_t>& out) const;
  std::uint32_t encode_gap(Time v) const;

  /// One position of an observer window (codes index these).
  struct WindowPos {
    EventId event;
    bool last;  ///< completing this position completes the window
  };

  const TransitionSystem* base_;
  std::vector<BanObserver> observers_;
  std::vector<std::uint32_t> first_code_;  ///< per observer
  std::vector<WindowPos> positions_;       ///< all windows, concatenated
  /// Activated orderings, by their `after` event: befores_[y] lists x.
  std::vector<std::vector<EventId>> befores_;
  std::size_t num_pairs_ = 0;
  /// enabled(): CSR rows per base state.
  std::vector<std::uint32_t> enabled_off_;
  std::vector<EventId> enabled_ev_;
  /// pseudo_enabled(): CSR rows, empty until set_chokes adds a choke.
  std::vector<std::uint32_t> pseudo_off_;
  std::vector<EventId> pseudo_ev_;
  bool age_rule_ = false;
  Time cap_ = 1;
};

/// Materialised refined system, for inspection and statistics (the paper's
/// Fig. 1(c,d) LzTS snapshots).
struct MaterializedLazyTs {
  TransitionSystem ts;              ///< refined (pruned) graph
  std::vector<StateId> base_state;  ///< per refined state
  std::size_t blocked_firings = 0;  ///< transitions removed by observers
  bool truncated = false;
};

MaterializedLazyTs materialize(const RefinedSystem& sys,
                               std::size_t max_states = 1'000'000);

}  // namespace rtv
