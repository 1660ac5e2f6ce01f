#include <algorithm>

#include "rtv/base/log.hpp"
#include "rtv/lazy/refined_system.hpp"
#include "rtv/lazy/state_store.hpp"

namespace rtv {

MaterializedLazyTs materialize(const RefinedSystem& sys, std::size_t max_states) {
  MaterializedLazyTs out;
  const TransitionSystem& base = sys.base();

  // Copy the event table so refined EventIds equal base EventIds.
  for (std::size_t i = 0; i < base.num_events(); ++i) {
    const Event& e = base.event(EventId(static_cast<EventId::underlying_type>(i)));
    out.ts.add_event(e.label, e.delay, e.kind);
  }

  // Store ids equal refined StateIds: both count states in first-visit order.
  max_states = std::min(max_states, RefinedStateStore::kMaxStates);
  RefinedStateStore store(std::min<std::size_t>(
      {std::max<std::size_t>(base.num_states(), 256), max_states, 4096}));
  std::vector<std::uint32_t> scratch;
  auto intern = [&]() {
    const auto [id, inserted] = store.intern(scratch);
    const StateId s(id);
    if (inserted) {
      const StateId b = RefinedSystem::base_of(store.state(id));
      out.ts.add_state(base.state_name(b));
      out.base_state.push_back(b);
      if (base.has_valuations()) {
        if (out.ts.signal_names().empty())
          out.ts.set_signal_names(base.signal_names());
        out.ts.set_state_valuation(s, base.valuation(b));
      }
    }
    return s;
  };

  sys.initial(scratch);
  out.ts.set_initial(intern());

  for (RefinedStateStore::Id next = 0; next < store.size(); ++next) {
    if (out.ts.num_states() > max_states) {
      out.truncated = true;
      RTV_WARN << "lazy materialisation truncated at " << out.ts.num_states();
      break;
    }
    const PackedState rs = store.state(next);
    const StateId from(next);
    for (const Transition& t : base.transitions_from(RefinedSystem::base_of(rs))) {
      if (sys.blocked(rs, t.event)) {
        ++out.blocked_firings;
        continue;
      }
      sys.advance(rs, t.event, scratch);
      out.ts.add_transition(from, t.event, intern());
    }
  }
  return out;
}

}  // namespace rtv
