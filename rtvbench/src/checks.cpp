// Output checks computed apart from the engine under test: counterexample
// replay over compose()'s graph, walked here from the initial state.
#include "checks.hpp"

#include <algorithm>

namespace rtvbench {

namespace {

/// A violation the engine could be reporting at the end of the walk.
bool violates_at(const rtv::TransitionSystem& ts, rtv::StateId s,
                 const std::vector<const rtv::SafetyProperty*>& props) {
  const std::vector<rtv::EventId> enabled = ts.enabled_events(s);
  const rtv::PropertyContext ctx{ts, s, enabled};
  for (const rtv::SafetyProperty* p : props)
    if (p->check_state(ctx)) return true;
  return false;
}

bool firing_violates(const rtv::TransitionSystem& ts, rtv::StateId from,
                     rtv::EventId e, rtv::StateId to,
                     const std::vector<const rtv::SafetyProperty*>& props) {
  const std::vector<rtv::EventId> enabled = ts.enabled_events(from);
  const std::vector<rtv::EventId> after = ts.enabled_events(to);
  const rtv::PropertyContext ctx{ts, from, enabled};
  for (const rtv::SafetyProperty* p : props)
    if (p->check_event(ctx, e, to, after)) return true;
  return false;
}

}  // namespace

std::string replay_counterexample(const rtv::Composition& comp,
                                  const Item& item,
                                  const std::vector<std::string>& labels) {
  const rtv::TransitionSystem& ts = comp.ts;
  if (comp.truncated) return "composition truncated";

  // The set of composed states the prefix can reach (the graph may be
  // nondeterministic on a label).
  std::vector<rtv::StateId> states{ts.initial()};
  bool reached = std::any_of(states.begin(), states.end(), [&](auto s) {
    return violates_at(ts, s, item.properties);
  });
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const rtv::EventId e = ts.event_by_label(labels[i]);
    if (!e.valid()) return "unknown event '" + labels[i] + "'";
    const bool last = i + 1 == labels.size();
    std::vector<rtv::StateId> next;
    reached = false;
    for (rtv::StateId s : states) {
      for (const rtv::Transition& t : ts.transitions_from(s)) {
        if (t.event != e) continue;
        if (std::find(next.begin(), next.end(), t.target) == next.end())
          next.push_back(t.target);
        if (last && firing_violates(ts, s, e, t.target, item.properties))
          reached = true;
      }
      // A refused output ends a containment counterexample.
      if (last) {
        for (const rtv::ChokeRecord& c : comp.chokes)
          if (c.state == s && c.event == e) reached = true;
      }
    }
    if (next.empty() && !reached)
      return "step " + std::to_string(i + 1) + " '" + labels[i] +
             "' is not enabled";
    states = std::move(next);
  }
  for (rtv::StateId s : states)
    if (violates_at(ts, s, item.properties)) reached = true;
  return reached ? "" : "walk ends without a violation";
}

}  // namespace rtvbench
