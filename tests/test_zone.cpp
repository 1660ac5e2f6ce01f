#include "rtv/zone/zone_graph.hpp"

#include <gtest/gtest.h>

#include "rtv/ts/gallery.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {
namespace {

const Engine& zone = *engine_registry().find("zone");

TEST(ZoneGraph, IntroExamplePropertyHoldsTimed) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = zone.run({.modules = {&sys, &mon}, .properties = {&bad}});
  EXPECT_FALSE(r.violated());
  EXPECT_FALSE(r.inconclusive());
  EXPECT_GT(r.states_explored, 0u);
}

TEST(ZoneGraph, PropertyFailsWhenDelaysAllowIt) {
  // Same structure but d becomes fast and g slow: d can beat g.
  TransitionSystem ts = gallery::intro_example().ts();
  ts.set_event_delay(ts.event_by_label("g"), DelayInterval::units(10, 20));
  ts.set_event_delay(ts.event_by_label("d"), DelayInterval::units(0, 1));
  const Module sys("intro-broken", std::move(ts));
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = zone.run({.modules = {&sys, &mon}, .properties = {&bad}});
  EXPECT_TRUE(r.violated());
  EXPECT_FALSE(r.trace_labels.empty());
}

TEST(ZoneGraph, RaceSemantics) {
  // x [1,2] races y [5,6] from the same instant: y can never fire first.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                    DelayInterval::units(5, 6));
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x before y", {{"fail", true}});
  const EngineResult r = zone.run({.modules = {&m, &mon}, .properties = {&bad}});
  EXPECT_FALSE(r.violated());
}

TEST(ZoneGraph, RaceTieIsPossible) {
  // x [1,3] and y [2,4] overlap: both orders possible, so "x always
  // first" is violated... the monitor flags y-before-x; check that the
  // overlapping race indeed allows y first.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 3), "y",
                                    DelayInterval::units(2, 4));
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x before y", {{"fail", true}});
  const EngineResult r = zone.run({.modules = {&m, &mon}, .properties = {&bad}});
  EXPECT_TRUE(r.violated());
}

TEST(ZoneGraph, UrgencyForcesProgress) {
  // A single event with finite bounds in a loop never deadlocks and keeps
  // the zone count finite thanks to extrapolation.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval::units(1, 2));
  ts.add_transition(s0, x, s0);
  ts.set_initial(s0);
  const Module m("loop", std::move(ts));
  const DeadlockFreedom dead;
  const EngineResult r = zone.run({.modules = {&m}, .properties = {&dead}});
  EXPECT_FALSE(r.violated());
  EXPECT_LT(r.states_explored, 10u);
}

TEST(ZoneGraph, DeadlockDetected) {
  const Module m = gallery::chain({{"a", DelayInterval::units(1, 2)}});
  const DeadlockFreedom dead;
  const EngineResult r = zone.run({.modules = {&m}, .properties = {&dead}});
  EXPECT_TRUE(r.violated());
  EXPECT_EQ(r.message, "deadlock");
  EXPECT_EQ(r.trace_labels, (std::vector<std::string>{"a"}));
}

TEST(ZoneGraph, PersistencyViolationOnlyWhenTimedReachable) {
  // y [5,6] would disable x [1,2] — but x always fires first, so the
  // persistency violation is NOT timed-reachable.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval::units(1, 2));
  const EventId y = ts.add_event("y", DelayInterval::units(5, 6));
  ts.add_transition(s0, x, s1);
  ts.add_transition(s0, y, s2);  // firing y disables x
  ts.add_transition(s1, y, s2);
  ts.set_initial(s0);
  const Module m("race", std::move(ts));
  const PersistencyProperty pers;
  const EngineResult r = zone.run({.modules = {&m}, .properties = {&pers}});
  EXPECT_FALSE(r.violated());

  // Overlapping delays make it reachable.
  TransitionSystem ts2;
  const StateId t0 = ts2.add_state();
  const StateId t1 = ts2.add_state();
  const StateId t2 = ts2.add_state();
  const EventId x2 = ts2.add_event("x", DelayInterval::units(1, 4));
  const EventId y2 = ts2.add_event("y", DelayInterval::units(2, 6));
  ts2.add_transition(t0, x2, t1);
  ts2.add_transition(t0, y2, t2);
  ts2.add_transition(t1, y2, t2);
  ts2.set_initial(t0);
  const Module m2("race2", std::move(ts2));
  const EngineResult r2 = zone.run({.modules = {&m2}, .properties = {&pers}});
  EXPECT_TRUE(r2.violated());
}

TEST(ZoneGraph, ChokeOnlyCountsWhenTimedReachable) {
  // Producer wants x+ then x- then x+ again; a listener accepts one pulse
  // only.  The second x+ is a choke; it is timed-reachable here.
  TransitionSystem pts;
  const StateId p0 = pts.add_state();
  const StateId p1 = pts.add_state();
  const EventId up = pts.add_event("x+", DelayInterval::units(1, 2), EventKind::kOutput);
  const EventId dn = pts.add_event("x-", DelayInterval::units(1, 2), EventKind::kOutput);
  pts.add_transition(p0, up, p1);
  pts.add_transition(p1, dn, p0);
  pts.set_initial(p0);
  const Module producer("p", std::move(pts));

  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  const StateId l2 = lts.add_state();
  lts.add_transition(l0, lts.add_event("x+", DelayInterval::unbounded(), EventKind::kInput), l1);
  lts.add_transition(l1, lts.add_event("x-", DelayInterval::unbounded(), EventKind::kInput), l2);
  lts.set_initial(l0);
  const Module once("once", std::move(lts));

  const EngineResult r = zone.run({.modules = {&producer, &once}});
  EXPECT_TRUE(r.violated());
  EXPECT_NE(r.message.find("refusal"), std::string::npos);
}

TEST(ZoneGraph, ZoneCountExceedsDiscreteStates) {
  const Module sys = gallery::intro_example();
  const EngineResult r = zone.run({.modules = {&sys}});
  const std::size_t discrete_states =
      std::get<ZoneEngineStats>(r.stats).discrete_states;
  EXPECT_GE(r.states_explored, discrete_states);
  EXPECT_GT(discrete_states, 0u);
}

TEST(ZoneGraph, ZoneBudgetIsNeverVerified) {
  // Two free-running loops: one composed state, eleven zones.  A budget of
  // one or two zones rejects a successor on the last expansion and leaves
  // the queue empty; that run must stay Inconclusive, not VERIFIED.
  const auto loop = [](const char* label, DelayInterval d) {
    TransitionSystem ts;
    const StateId s = ts.add_state();
    ts.add_transition(s, ts.add_event(label, d), s);
    ts.set_initial(s);
    return Module(label, std::move(ts));
  };
  const Module x = loop("x", DelayInterval::units(1, 2));
  const Module y = loop("y", DelayInterval::units(3, 5));
  for (const std::size_t cap : {1u, 2u, 5u}) {
    EngineRequest req{.modules = {&x, &y}};
    req.budget.max_states = cap;
    const EngineResult r = zone.run(req);
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << "cap " << cap;
    EXPECT_EQ(r.truncated_reason, stop_reason::kStateBudget) << "cap " << cap;
    EXPECT_LE(r.states_explored, cap);
  }
  EXPECT_EQ(zone.run({.modules = {&x, &y}}).verdict, Verdict::kVerified);
}

}  // namespace
}  // namespace rtv
