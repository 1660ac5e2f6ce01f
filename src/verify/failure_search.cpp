#include "rtv/verify/failure_search.hpp"

#include <algorithm>

#include "rtv/base/log.hpp"
#include "rtv/lazy/state_store.hpp"

namespace rtv {

namespace {

constexpr RefinedStateStore::Id kNoParent = ~RefinedStateStore::Id{0};

std::vector<EventId> to_vector(std::span<const EventId> events) {
  return {events.begin(), events.end()};
}

/// Rebuild a trace (over base states, with raw enabling sets) from BFS
/// parent pointers in refined-state space.
Trace unwind(const RefinedSystem& sys, const RefinedStateStore& store,
             const std::vector<RefinedStateStore::Id>& parent,
             const std::vector<EventId>& via, RefinedStateStore::Id leaf) {
  std::vector<std::pair<StateId, EventId>> rev;
  for (RefinedStateStore::Id cur = leaf; parent[cur] != kNoParent;
       cur = parent[cur]) {
    rev.emplace_back(RefinedSystem::base_of(store.state(parent[cur])), via[cur]);
  }
  Trace t;
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    TraceStep step;
    step.state = it->first;
    step.event = it->second;
    step.enabled = to_vector(sys.enabled(it->first));
    t.steps.push_back(std::move(step));
  }
  t.final_state = RefinedSystem::base_of(store.state(leaf));
  t.final_enabled = to_vector(sys.enabled(t.final_state));
  return t;
}

}  // namespace

std::optional<Failure> find_failure(
    const RefinedSystem& sys, std::span<const ChokeRecord> chokes,
    std::span<const SafetyProperty* const> properties, std::size_t max_states,
    FailureSearchStats* stats, RunClock* clock) {
  const TransitionSystem& base = sys.base();
  max_states = std::min(max_states, RefinedStateStore::kMaxStates);

  // Chokes sorted by base state (stable: each state keeps its records'
  // order), looked up by binary search.
  std::vector<const ChokeRecord*> chokes_by_state;
  chokes_by_state.reserve(chokes.size());
  for (const ChokeRecord& c : chokes) chokes_by_state.push_back(&c);
  const auto state_of = [](const ChokeRecord* c) { return c->state.value(); };
  std::ranges::stable_sort(chokes_by_state, {}, state_of);

  // Pre-sizing skips the early growth reallocations; the hint is capped
  // because find_failure runs once per refinement iteration and most
  // iterations stop at a shallow failure — sizing to the full base graph
  // would pay MBs of zeroed memory hundreds of times per run.
  const std::size_t hint = std::min<std::size_t>(
      {std::max<std::size_t>(base.num_states(), 256), max_states, 4096});
  // Ids are dense in first-visit order, so expanding them in ascending
  // order is the BFS queue.
  RefinedStateStore store(hint);
  std::vector<RefinedStateStore::Id> parent;
  std::vector<EventId> via;
  parent.reserve(hint);
  via.reserve(hint);
  std::vector<std::uint32_t> scratch;
  std::size_t successors = 0;

  auto finish = [&](std::optional<Failure> f) {
    if (stats) {
      stats->states_explored = store.size();
      stats->successors = successors;
    }
    return f;
  };
  auto fail_at = [&](RefinedStateStore::Id id, std::string description) {
    Failure f;
    f.trace = unwind(sys, store, parent, via, id);
    f.description = std::move(description);
    return f;
  };

  sys.initial(scratch);
  store.intern(scratch);
  parent.push_back(kNoParent);
  via.push_back(EventId::invalid());

  for (RefinedStateStore::Id id = 0; id < store.size(); ++id) {
    if (store.size() > max_states) {
      if (stats) {
        stats->truncated = true;
        stats->stop_reason = stop_reason::kStateBudget;
      }
      RTV_WARN << "failure search truncated at " << store.size() << " states";
      break;
    }
    if (clock) {
      if (const char* reason = clock->tick(store.size())) {
        if (stats) {
          stats->truncated = true;
          stats->stop_reason = reason;
        }
        RTV_WARN << "failure search stopped: " << reason;
        break;
      }
    }
    const PackedState rs = store.state(id);
    const StateId b = RefinedSystem::base_of(rs);
    const std::span<const EventId> raw_enabled = sys.enabled(b);
    const PropertyContext ctx{base, b, raw_enabled};

    // 1. State violations.
    for (const SafetyProperty* p : properties) {
      if (auto v = p->check_state(ctx)) return finish(fail_at(id, std::move(*v)));
    }

    // 2. Chokes at this base state (virtual firings refused by a monitor).
    for (const ChokeRecord* c :
         std::ranges::equal_range(chokes_by_state, b.value(), {}, state_of)) {
      if (sys.blocked(rs, c->event)) continue;  // timing-pruned
      Failure f = fail_at(id, "refusal: output '" + base.label(c->event) +
                                  "' not accepted (containment violation)");
      f.virtual_event = c->event;
      return finish(std::move(f));
    }

    // 3. Firings: event checks, then expansion.
    for (const Transition& t : base.transitions_from(b)) {
      if (sys.blocked(rs, t.event)) continue;
      const std::span<const EventId> succ_enabled = sys.enabled(t.target);
      for (const SafetyProperty* p : properties) {
        if (auto v = p->check_event(ctx, t.event, t.target, succ_enabled)) {
          Failure f = fail_at(id, std::move(*v));
          // The violating firing becomes the last step of the trace.
          TraceStep step;
          step.state = b;
          step.event = t.event;
          step.enabled = to_vector(raw_enabled);
          f.trace.steps.push_back(std::move(step));
          f.trace.final_state = t.target;
          f.trace.final_enabled = to_vector(succ_enabled);
          return finish(std::move(f));
        }
      }
      sys.advance(rs, t.event, scratch);
      ++successors;
      if (store.intern(scratch).inserted) {
        parent.push_back(id);
        via.push_back(t.event);
      }
    }
  }

  return finish(std::nullopt);
}

}  // namespace rtv
