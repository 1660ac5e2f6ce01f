#include "rtv/lazy/refined_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "rtv/lazy/state_store.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

using Words = std::vector<std::uint32_t>;

Words initial_of(const RefinedSystem& rs) {
  Words s;
  rs.initial(s);
  return s;
}

Words step(const RefinedSystem& rs, const Words& s, EventId e) {
  Words next;
  rs.advance(s, e, next);
  return next;
}

TEST(RefinedSystem, NoObserversMeansNoBlocking) {
  const Module m = gallery::intro_example();
  RefinedSystem rs(m.ts());
  const Words s = initial_of(rs);
  for (EventId e : m.ts().enabled_events(RefinedSystem::base_of(s))) {
    EXPECT_FALSE(rs.blocked(s, e));
  }
}

TEST(RefinedSystem, FromStartObserverBlocksExactSequence) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const EventId a = ts.event_by_label("a");
  const EventId c = ts.event_by_label("c");
  const EventId d = ts.event_by_label("d");

  RefinedSystem rs(ts);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {a, c, d};
  rs.add_observer(std::move(obs));

  Words s = initial_of(rs);
  EXPECT_FALSE(rs.blocked(s, a));
  s = step(rs, s, a);
  EXPECT_FALSE(rs.blocked(s, c));
  s = step(rs, s, c);
  EXPECT_TRUE(rs.blocked(s, d));  // completing the window
}

TEST(RefinedSystem, DivergedRunIsNotBlocked) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const EventId a = ts.event_by_label("a");
  const EventId b = ts.event_by_label("b");
  const EventId c = ts.event_by_label("c");
  const EventId d = ts.event_by_label("d");

  RefinedSystem rs(ts);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {a, c, d};
  rs.add_observer(std::move(obs));

  // Firing b first diverges from the window: d stays allowed.
  Words s = initial_of(rs);
  s = step(rs, s, b);
  s = step(rs, s, a);
  s = step(rs, s, c);
  EXPECT_FALSE(rs.blocked(s, d));
}

TEST(RefinedSystem, AnchoredObserverRearmsAtEveryVisit) {
  // Loop u; x with ban [x] anchored at the post-u state: x is blocked on
  // every visit.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const EventId u = ts.add_event("u");
  const EventId x = ts.add_event("x");
  const EventId back = ts.add_event("back");
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, x, s0);
  ts.add_transition(s1, back, s0);
  ts.set_initial(s0);

  RefinedSystem rs(ts);
  BanObserver obs;
  obs.from_start = false;
  obs.anchor_state = s1;
  obs.window = {x};
  rs.add_observer(std::move(obs));

  Words s = initial_of(rs);
  s = step(rs, s, u);
  EXPECT_TRUE(rs.blocked(s, x));
  s = step(rs, s, back);
  s = step(rs, s, u);
  EXPECT_TRUE(rs.blocked(s, x));  // re-armed on the second visit
}

TEST(RefinedSystem, MaterializePrunesBlockedFirings) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  RefinedSystem rs(ts);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {ts.event_by_label("a"), ts.event_by_label("c"),
                ts.event_by_label("d")};
  rs.add_observer(std::move(obs));

  const MaterializedLazyTs lazy = materialize(rs);
  EXPECT_EQ(lazy.blocked_firings, 1u);
  EXPECT_FALSE(lazy.truncated);
  // The refined system has no more behaviours than the base one.
  EXPECT_LE(lazy.ts.num_transitions() + lazy.blocked_firings,
            ts.num_transitions() + lazy.ts.num_states());
}

TEST(RefinedSystem, PairBlockingNeedsActivationAndJustification) {
  // Diamond race x [1,2] vs y [5,6]: the pair (x, y) justifies blocking y
  // while x is pending — but only once activated.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                    DelayInterval::units(5, 6));
  const TransitionSystem& ts = m.ts();
  const EventId x = ts.event_by_label("x");
  const EventId y = ts.event_by_label("y");

  RefinedSystem rs(ts);
  rs.enable_age_rule(true);
  Words s0 = initial_of(rs);
  EXPECT_FALSE(rs.blocked(s0, y));

  EXPECT_TRUE(rs.activate_pair(x, y));
  EXPECT_FALSE(rs.activate_pair(x, y));  // already active
  s0 = initial_of(rs);                   // re-pull with bookkeeping on
  EXPECT_TRUE(rs.blocked(s0, y));
  EXPECT_FALSE(rs.blocked(s0, x));
}

TEST(RefinedSystem, PairNotJustifiedWhenWindowsOverlap) {
  // x [1,4] vs y [2,3]: overlap, no provable ordering, pair must not block.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 4), "y",
                                    DelayInterval::units(2, 3));
  const TransitionSystem& ts = m.ts();
  RefinedSystem rs(ts);
  rs.enable_age_rule(true);
  rs.activate_pair(ts.event_by_label("x"), ts.event_by_label("y"));
  const Words s0 = initial_of(rs);
  EXPECT_FALSE(rs.blocked(s0, ts.event_by_label("y")));
}

TEST(RefinedSystem, ChainSlackJustifiesPair) {
  // u [3,4] enables y [4,5]; x [1,2] pending from the start with deadline
  // 2... wait: x's deadline (2) < u's earliest (3), so u itself could not
  // fire before x.  Use a start-wave x with deadline 8: after u (>= 3),
  // y's earliest is 3 + 4 = 7 < 8: not blocked.  With deadline 6 — wave
  // bound gives lower(t_wave(y) - t_wave(x)) = 3, 3 + 4 = 7 > 6: blocked.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const StateId s3 = ts.add_state();
  const EventId x6 = ts.add_event("x6", DelayInterval::units(1, 6));
  const EventId x8 = ts.add_event("x8", DelayInterval::units(1, 8));
  const EventId u = ts.add_event("u", DelayInterval::units(3, 4));
  const EventId y = ts.add_event("y", DelayInterval::units(4, 5));
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, y, s2);
  ts.add_transition(s0, x6, s3);
  ts.add_transition(s0, x8, s3);
  ts.add_transition(s1, x6, s3);
  ts.add_transition(s1, x8, s3);
  ts.set_initial(s0);

  RefinedSystem rs(ts);
  rs.enable_age_rule(true);
  rs.activate_pair(x6, y);
  rs.activate_pair(x8, y);
  Words s = initial_of(rs);
  s = step(rs, s, u);
  EXPECT_TRUE(rs.blocked(s, y));  // justified through x6's deadline
}

TEST(RefinedSystem, StateHashingConsistent) {
  const Module m = gallery::intro_example();
  RefinedSystem rs(m.ts());
  rs.enable_age_rule(true);
  rs.activate_pair(m.ts().event_by_label("b"), m.ts().event_by_label("d"));
  const Words a = initial_of(rs);
  const Words b = initial_of(rs);
  EXPECT_EQ(a, b);
  EXPECT_EQ(RefinedStateStore::hash(a), RefinedStateStore::hash(b));
}


TEST(RefinedStateStore, TwoPathsToOneStateInternToOneId) {
  // x then y and y then x reach the same diamond corner with the same
  // observer and wave bookkeeping: one state, one id.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                    DelayInterval::units(5, 6));
  const TransitionSystem& ts = m.ts();
  const EventId x = ts.event_by_label("x");
  const EventId y = ts.event_by_label("y");
  RefinedSystem rs(ts);
  rs.enable_age_rule(true);
  rs.activate_pair(y, x);  // never justified here: x is the faster event

  RefinedStateStore store;
  const Words s0 = initial_of(rs);
  EXPECT_EQ(store.intern(s0).id, 0u);
  const Words xy = step(rs, step(rs, s0, x), y);
  const Words yx = step(rs, step(rs, s0, y), x);
  EXPECT_EQ(RefinedSystem::base_of(xy), RefinedSystem::base_of(yx));
  const auto first = store.intern(xy);
  const auto second = store.intern(yx);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(store.size(), 2u);
}

TEST(RefinedStateStore, EqualHashesStayDistinct) {
  RefinedStateStore store;
  const Words a{1, 2, 3};
  const Words b{1, 2, 4};
  const Words c{1, 2};
  const auto ia = store.intern(a, 42);
  const auto ib = store.intern(b, 42);
  const auto ic = store.intern(c, 42);
  EXPECT_TRUE(ia.inserted && ib.inserted && ic.inserted);
  EXPECT_NE(ia.id, ib.id);
  EXPECT_NE(ib.id, ic.id);
  EXPECT_EQ(store.intern(a, 42).id, ia.id);
  EXPECT_EQ(store.intern(c, 42).id, ic.id);
  EXPECT_FALSE(store.intern(b, 42).inserted);
  EXPECT_EQ(store.size(), 3u);
}

TEST(RefinedStateStore, IdsAndSpansSurviveGrowth) {
  // A one-state hint: the table doubles many times and the arena spans
  // many blocks while the early spans stay where they were.
  RefinedStateStore store(1);
  auto words_of = [](std::uint32_t i) {
    return Words(1 + i % 37, i);  // varying lengths
  };
  const Words w0 = words_of(0);
  store.intern(w0);
  const PackedState first = store.state(0);
  constexpr std::uint32_t kStates = 20000;
  for (std::uint32_t i = 1; i < kStates; ++i) {
    const auto r = store.intern(words_of(i));
    ASSERT_TRUE(r.inserted) << i;
    ASSERT_EQ(r.id, i);
  }
  EXPECT_EQ(store.size(), kStates);
  EXPECT_EQ(store.state(0).data(), first.data());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), w0.begin(), w0.end()));
  std::size_t words = 0;
  for (std::uint32_t i = 0; i < kStates; ++i) {
    const Words w = words_of(i);
    const PackedState s = store.state(i);
    ASSERT_TRUE(std::equal(s.begin(), s.end(), w.begin(), w.end())) << i;
    const auto again = store.intern(w);
    ASSERT_FALSE(again.inserted) << i;
    ASSERT_EQ(again.id, i);
    words += w.size() + 1;
  }
  EXPECT_EQ(store.arena_bytes(), words * sizeof(std::uint32_t));
}

TEST(RefinedStateStore, GapsPast16BitsRoundTrip) {
  // x [1, 100000] stays pending while u [40000, 40001] fires and enables
  // y [60001, 60002]: the new wave sits 40000..40001 ticks after the
  // first one, bounds that a 16-bit entry biased by the cap (100001)
  // cannot hold.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval(1, 100000));
  const EventId u = ts.add_event("u", DelayInterval(40000, 40001));
  const EventId y = ts.add_event("y", DelayInterval(60001, 60002));
  ts.add_transition(s0, u, s1);
  ts.add_transition(s0, x, s2);
  ts.add_transition(s1, x, s2);
  ts.add_transition(s1, y, s2);
  ts.set_initial(s0);

  RefinedSystem rs(ts);
  rs.enable_age_rule(true);
  ASSERT_TRUE(rs.gaps_in_range());
  rs.activate_pair(x, y);
  const Words s = step(rs, initial_of(rs), u);

  RefinedStateStore store;
  const PackedState stored = store.state(store.intern(s).id);
  ASSERT_EQ(RefinedSystem::num_waves(stored), 2u);
  EXPECT_EQ(RefinedSystem::wave_gap(stored, 1, 0), 40001);   // t(y) - t(x)
  EXPECT_EQ(RefinedSystem::wave_gap(stored, 0, 1), -40000);
  EXPECT_EQ(RefinedSystem::wave_gap(stored, 0, 0), 0);
  // y fires at least 40000 + 60001 ticks after x's enabling, past x's
  // deadline: the pair (x before y) prunes y, never x.
  EXPECT_TRUE(rs.blocked(stored, y));
  EXPECT_FALSE(rs.blocked(stored, x));
}

TEST(RefinedStateStore, DelayBoundsPastInt32AreOutOfRange) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  ts.add_event("big", DelayInterval(1, RefinedSystem::kMaxGapCap));
  ts.set_initial(s0);
  RefinedSystem rs(ts);
  EXPECT_TRUE(rs.gaps_in_range());  // the age rule is off
  rs.enable_age_rule(true);
  EXPECT_FALSE(rs.gaps_in_range());
}

}  // namespace
}  // namespace rtv
