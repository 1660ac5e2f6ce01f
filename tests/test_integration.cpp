// Cross-module integration tests: simulation runs stay inside the timed
// (zone-reachable) state space; the lazy materialisation reproduces the
// Fig. 1(c,d) pruning; STG-file environments verify end to end.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rtv/lazy/refined_system.hpp"
#include "rtv/sim/simulator.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"
#include "rtv/stg/library.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv {
namespace {

const Engine& refine = *engine_registry().find("refine");

TEST(Integration, SimulationVisitsOnlyZoneReachableStates) {
  // Every discrete state visited by a timed simulation must be reachable
  // in the zone graph (the simulator implements the same TTS semantics).
  const Module sys = gallery::intro_example();
  const EngineResult z = engine_registry().find("zone")->run({.modules = {&sys}});
  ASSERT_FALSE(z.violated());
  const std::size_t discrete_states =
      std::get<ZoneEngineStats>(z.stats).discrete_states;

  // Collect simulated discrete states over many seeds.
  std::set<StateId::underlying_type> visited;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    SimOptions opts;
    opts.seed = seed;
    const SimTrace t = simulate(sys.ts(), opts);
    for (const SimEvent& e : t.events) visited.insert(e.state_after.value());
  }
  // The zone engine reports how many discrete states are timed-reachable;
  // simulation can never exceed that.
  EXPECT_LE(visited.size() + 1, discrete_states + 1);
  EXPECT_GE(discrete_states, visited.size());
}

TEST(Integration, MaterializedLazySystemShrinksPerRefinement) {
  // Manually replay the intro example's refinement sequence and check the
  // lazy product prunes firings (Fig. 1(c,d): fewer and fewer traces).
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = refine.run({.modules = {&sys, &mon}, .properties = {&bad}});
  ASSERT_EQ(r.verdict, Verdict::kVerified);

  // Rebuild the composition and apply the derived orderings.
  const Composition comp = compose({&sys, &mon});
  RefinedSystem refined(comp.ts);
  refined.enable_age_rule(true);
  for (const DerivedOrdering& o : std::get<RefineEngineStats>(r.stats).orderings()) {
    refined.activate_pair(comp.ts.event_by_label(o.before),
                          comp.ts.event_by_label(o.after));
  }
  const MaterializedLazyTs lazy = materialize(refined);
  EXPECT_GT(lazy.blocked_firings, 0u);
  // The bad state (fail signal) is unreachable in the refined system.
  const std::size_t fail_idx = lazy.ts.signal_index("fail");
  ASSERT_NE(fail_idx, static_cast<std::size_t>(-1));
  for (StateId s : lazy.ts.reachable_states()) {
    EXPECT_FALSE(lazy.ts.valuation(s).test(fail_idx));
  }
}

TEST(Integration, AstgEnvironmentVerifiesAgainstAbstraction) {
  // Round-trip the A_out abstraction through the .g format and use the
  // parsed copy as the monitor of a containment check: a pulse-paced IN
  // driving OUT refines A_out.  The check is genuinely *timed*: A_out
  // promises VALID+ after ACK+, which holds for IN only because the pulse
  // width (15+eps) exceeds the ACK response (<= 11) — the flow must derive
  // that ordering.
  const Stg aout_stg = stg_library::make_aout("V", "A");
  const Stg parsed = parse_astg_string(write_astg(aout_stg));
  const Module abstraction = elaborate(parsed);
  const Module out = stg_library::out_module("V", "A");
  const Module producer = stg_library::in_module("V", "A");

  const Module monitor = abstraction.as_monitor("Aout'");
  const DeadlockFreedom dead;
  const EngineResult r =
      refine.run({.modules = {&producer, &out, &monitor}, .properties = {&dead}});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GE(std::get<RefineEngineStats>(r.stats).refinements, 1);
}

TEST(Integration, ComposedDelayTighteningAffectsVerdict) {
  // The same diamond race is safe only because composition intersects the
  // producer's delays with a tighter listener annotation.
  Module impl = gallery::diamond("x", DelayInterval::units(1, 9), "y",
                                 DelayInterval::units(5, 6));
  // Untimed-ish x [1,9] overlaps y [5,6]: race can go either way.
  {
    const Module mon = gallery::order_monitor("x", "y");
    const InvariantProperty bad("x first", {{"fail", true}});
    const EngineResult r = refine.run({.modules = {&impl, &mon}, .properties = {&bad}});
    EXPECT_EQ(r.verdict, Verdict::kViolated);
  }
  // A participant declaring x in [1,2] tightens the composed event.
  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  lts.add_transition(
      l0, lts.add_event("x", DelayInterval::units(1, 2), EventKind::kInput), l1);
  lts.add_transition(
      l1, lts.add_event("y", DelayInterval::unbounded(), EventKind::kInput), l1);
  // Accept y anywhere so the listener never blocks it... also at l0.
  lts.add_transition(l0, lts.event_by_label("y"), l0);
  lts.set_initial(l0);
  const Module listener("tight-x", std::move(lts));
  {
    const Module mon = gallery::order_monitor("x", "y");
    const InvariantProperty bad("x first", {{"fail", true}});
    const EngineResult r =
        refine.run({.modules = {&impl, &listener, &mon}, .properties = {&bad}});
    EXPECT_EQ(r.verdict, Verdict::kVerified);
  }
}

/// `k` staggered independent events: a ticker fires s1..sk one unit apart,
/// s_i enables e_i, and e_i stays pending until it fires.  Once s_k has
/// fired, e_1..e_k are pending from k distinct instants.  e_1 ([40,41])
/// outlives the others ([20,21]), so the oldest wave is still pending while
/// the later events race one another.
Module staggered_events(int k) {
  TransitionSystem ts;
  std::vector<EventId> s, e;
  for (int i = 1; i <= k; ++i) {
    s.push_back(ts.add_event("s" + std::to_string(i), DelayInterval::units(1, 1)));
    e.push_back(ts.add_event("e" + std::to_string(i),
                             i == 1 ? DelayInterval::units(40, 41)
                                    : DelayInterval::units(20, 21)));
  }
  // A state is (ticks fired, mask of the e_i already fired).
  std::map<std::pair<int, unsigned>, StateId> ids;
  std::vector<std::pair<int, unsigned>> todo;
  const auto id = [&](int step, unsigned mask) {
    const auto [it, fresh] = ids.try_emplace({step, mask});
    if (fresh) {
      it->second = ts.add_state();
      todo.emplace_back(step, mask);
    }
    return it->second;
  };
  ts.set_initial(id(0, 0));
  while (!todo.empty()) {
    const auto [step, mask] = todo.back();
    todo.pop_back();
    const StateId from = ids.at({step, mask});
    if (step < k) ts.add_transition(from, s[step], id(step + 1, mask));
    for (int i = 0; i < step; ++i)
      if (!(mask >> i & 1u)) ts.add_transition(from, e[i], id(step, mask | 1u << i));
  }
  return Module("staggered", std::move(ts));
}

TEST(Integration, WaveMergeKeepsVerdictSound) {
  // More enabling instants pending at once than RefinedSystem tracks: the
  // oldest waves merge into weaker pseudo-instants.  That may cost
  // refinements, never soundness: the refine verdict matches the exact
  // zone engine's.
  constexpr int k = static_cast<int>(RefinedSystem::kMaxWaves) + 1;
  const Module sys = staggered_events(k);
  {
    // The merge really runs: after the last tick, k events are pending
    // from k instants, but the state tracks kMaxWaves waves.
    RefinedSystem rs(sys.ts());
    rs.enable_age_rule(true);
    rs.activate_pair(sys.ts().event_by_label("e1"),
                     sys.ts().event_by_label("e" + std::to_string(k)));
    std::vector<std::uint32_t> st, next;
    rs.initial(st);
    for (int i = 1; i <= k; ++i) {
      rs.advance(st, sys.ts().event_by_label("s" + std::to_string(i)), next);
      st.swap(next);
    }
    EXPECT_EQ(sys.ts().enabled_events(RefinedSystem::base_of(st)).size(),
              static_cast<std::size_t>(k));
    EXPECT_EQ(RefinedSystem::num_waves(st), RefinedSystem::kMaxWaves);
  }
  // e2 [22,23] and e3 [23,24] may tie; e2 always beats e4 [24,25]; the
  // decisive firings all happen while e1's wave is merged with e2's.
  const std::string last = "e" + std::to_string(k);
  for (const auto& [first, then] :
       {std::pair<std::string, std::string>{last, "e1"}, {"e1", last},
        {"e2", "e3"}, {"e2", "e4"}, {"e3", "e4"}}) {
    const Module mon = gallery::order_monitor(first, then);
    const InvariantProperty bad(first + " before " + then, {{"fail", true}});
    const EngineRequest req{.modules = {&sys, &mon}, .properties = {&bad}};
    const EngineResult z = engine_registry().find("zone")->run(req);
    const EngineResult r = refine.run(req);
    ASSERT_NE(z.verdict, Verdict::kInconclusive) << first << " < " << then;
    EXPECT_EQ(r.verdict, z.verdict) << first << " < " << then << ": " << r.message;
  }
}

TEST(Integration, RefineRefusesGapsPastInt32) {
  // x [1,2] always beats y, so "x before y" holds; proving it takes the
  // ordering x-before-y, justified through the wave-gap matrix — whose
  // int32 entries cannot hold y's upper bound.  refine must refuse, not
  // guess; the zone engine still decides.
  const Module sys = gallery::diamond(
      "x", DelayInterval::units(1, 2), "y",
      DelayInterval(DelayInterval::units(5, 6).lo(), RefinedSystem::kMaxGapCap));
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x before y", {{"fail", true}});
  const EngineRequest req{.modules = {&sys, &mon}, .properties = {&bad}};
  const EngineResult r = refine.run(req);
  EXPECT_EQ(r.verdict, Verdict::kInconclusive) << r.message;
  EXPECT_EQ(r.truncated_reason, stop_reason::kGapRange);
  EXPECT_EQ(engine_registry().find("zone")->run(req).verdict,
            Verdict::kVerified);
}

}  // namespace
}  // namespace rtv
