#include "rtv/verify/refinement.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "rtv/base/log.hpp"
#include "rtv/lazy/refined_system.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/verify/failure_search.hpp"

namespace rtv {

EngineResult refine_explore(const Composition& comp,
                            const EngineRequest& request, RunClock& clock,
                            std::size_t max_states,
                            const RefineOptions& options) {
  EngineResult result;
  RefineEngineStats stats;
  stats.composed_states = comp.ts.num_states();

  auto finish = [&](const char* truncated_reason) {
    if (truncated_reason) {
      result.truncated_reason = truncated_reason;
      if (result.message.empty()) result.message = truncated_reason;
    }
    for (const DerivedOrdering& o : stats.orderings())
      stats.constraints.push_back(o.before + " before " + o.after);
    result.seconds = clock.seconds();
    result.stats = std::move(stats);
    return result;
  };

  RTV_INFO << "composed " << comp.ts.num_states() << " states, "
           << comp.chokes.size() << " potential refusals";

  RefinedSystem refined(comp.ts);
  refined.enable_age_rule(options.structural_rule);
  refined.set_chokes(comp.chokes);

  std::string last_signature;
  for (std::size_t iter = 0; iter <= request.max_refinements; ++iter) {
    obs::Span span("refine iteration " + std::to_string(iter), "engine");
    FailureSearchStats search;
    std::optional<Failure> failure;
    {
      obs::Span phase("find_failure", "engine");
      failure = find_failure(refined, comp.chokes, request.properties,
                             max_states, &search, &clock);
    }
    if (obs::metrics_enabled())
      obs::Registry::global()
          .counter("rtv_refine_successors_total", "",
                   "Refined successors computed by the failure search")
          .add(search.successors);
    result.states_explored = search.states_explored;
    if (search.truncated) {
      const char* reason = search.stop_reason ? search.stop_reason
                                              : stop_reason::kStateBudget;
      result.message =
          std::string(reason) + " during failure search";
      return finish(reason);
    }
    if (!failure) {
      result.verdict = Verdict::kVerified;
      result.message = "no failure reachable under derived timing constraints";
      break;
    }

    std::optional<obs::Span> phase(std::in_place, "trace_timing", "engine");
    const TraceTimingModel model(comp.ts, failure->trace, failure->virtual_event,
                                 comp.chokes);
    if (model.consistent()) {
      result.verdict = Verdict::kViolated;
      for (const TraceStep& st : failure->trace.steps)
        result.trace_labels.push_back(comp.ts.label(st.event));
      if (failure->virtual_event.valid())
        result.trace_labels.push_back(comp.ts.label(failure->virtual_event));
      std::ostringstream os;
      os << failure->description << " via "
         << failure->trace.to_string(comp.ts);
      if (failure->virtual_event.valid())
        os << " then " << comp.ts.label(failure->virtual_event);
      result.message = os.str();
      break;
    }

    if (iter == request.max_refinements) {
      result.message = stop_reason::kRefinementBudget;
      return finish(stop_reason::kRefinementBudget);
    }

    phase.emplace("derive", "engine");
    const auto window = model.find_ban_window();
    if (!window) {
      // Cannot happen: an inconsistent trace always yields a window.
      result.message = "internal: inconsistent trace without ban window";
      break;
    }

    RefinementRecord rec;
    rec.iteration = static_cast<int>(iter) + 1;
    rec.failure = failure->description;
    rec.from_start = window->from_start;
    rec.orderings = model.explain(*window);

    // Preferred refinement: activate the derived orderings as relative
    // timing constraints (justified per state by the enabling-instant
    // matrix).  Fall back to banning the exact window when no new ordering
    // emerges or the same failure keeps recurring.
    std::string signature = failure->description;
    for (const TraceStep& st : failure->trace.steps)
      signature += "|" + comp.ts.label(st.event);
    if (!rec.orderings.empty() && !refined.gaps_in_range()) {
      // The constraints would be justified by the wave-gap matrix, whose
      // int32 entries cannot hold these delay bounds.
      result.message = std::string(stop_reason::kGapRange) +
                       ": a delay bound exceeds " +
                       std::to_string(RefinedSystem::kMaxGapCap - 1) + " ticks";
      return finish(stop_reason::kGapRange);
    }
    bool progressed = false;
    for (const DerivedOrdering& o : rec.orderings) {
      const EventId before = comp.ts.event_by_label(o.before);
      const EventId after = comp.ts.event_by_label(o.after);
      if (before.valid() && after.valid() &&
          refined.activate_pair(before, after)) {
        progressed = true;
        RTV_INFO << "refinement " << rec.iteration << ": " << rec.failure
                 << " -> constraint " << o.before << " before " << o.after;
      }
    }
    if (!progressed || signature == last_signature) {
      rec.used_window = true;
      BanObserver obs;
      obs.from_start = window->from_start;
      obs.anchor_state = model.state_at(window->anchor_point);
      for (int k = window->anchor_point; k <= window->last_point; ++k) {
        obs.window.push_back(model.fired(k));
        rec.window_labels.push_back(comp.ts.label(model.fired(k)));
      }
      rec.anchor = window->from_start
                       ? std::string("run start")
                       : "state " + comp.describe_state(obs.anchor_state);
      {
        std::ostringstream os;
        os << "ban[";
        for (std::size_t i = 0; i < rec.window_labels.size(); ++i) {
          if (i) os << " ";
          os << rec.window_labels[i];
        }
        os << "] @ " << rec.anchor;
        obs.description = os.str();
      }
      RTV_INFO << "refinement " << rec.iteration << ": " << rec.failure
               << " -> " << obs.description;
      refined.add_observer(std::move(obs));
    }
    last_signature = std::move(signature);
    stats.records.push_back(std::move(rec));
    stats.refinements = static_cast<int>(iter) + 1;
  }

  return finish(nullptr);
}

}  // namespace rtv
