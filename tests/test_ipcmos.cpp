#include "rtv/ipcmos/experiments.hpp"

#include <gtest/gtest.h>

#include "rtv/circuit/invariants.hpp"

namespace rtv::ipcmos {
namespace {

TEST(IpcmosStage, TransistorBudgetMatchesPaperFormula) {
  // The paper: N = 21 + 7*N_in + 4*N_out; a linear stage has 32.
  const Netlist nl = make_stage_netlist("I1", linear_channels(1));
  EXPECT_EQ(nl.transistor_count(), expected_transistors(1, 1));
  EXPECT_EQ(nl.transistor_count(), 32);

  StageChannels wide;
  wide.valid_in = {"Va", "Vb"};
  wide.ack_out = "A";
  wide.valid_out = {"Vo1", "Vo2", "Vo3"};
  wide.ack_in = {"Ai1", "Ai2", "Ai3"};
  const Netlist nw = make_stage_netlist("W", wide);
  EXPECT_EQ(nw.transistor_count(), expected_transistors(2, 3));
}

TEST(IpcmosStage, InitialStateMatchesPaper) {
  // "Initially the pipeline is empty: all VALID high, CLKE high, ACK low."
  const Module stage = make_stage(1);
  const TransitionSystem& ts = stage.ts();
  const BitVec& v = ts.valuation(ts.initial());
  EXPECT_TRUE(v.test(ts.signal_index("V1")));
  EXPECT_TRUE(v.test(ts.signal_index("V2")));
  EXPECT_TRUE(v.test(ts.signal_index("I1.CLKE")));
  EXPECT_FALSE(v.test(ts.signal_index("A1")));
  EXPECT_FALSE(v.test(ts.signal_index("A2")));
  EXPECT_TRUE(v.test(ts.signal_index("I1.Vint")));
  EXPECT_TRUE(v.test(ts.signal_index("I1.Y")));
}

TEST(IpcmosStage, InterfaceKinds) {
  const Module stage = make_stage(1);
  EXPECT_EQ(stage.kind_of("V1-"), EventKind::kInput);
  EXPECT_EQ(stage.kind_of("A2+"), EventKind::kInput);
  EXPECT_EQ(stage.kind_of("A1+"), EventKind::kOutput);
  EXPECT_EQ(stage.kind_of("V2-"), EventKind::kOutput);
  EXPECT_EQ(stage.kind_of("I1.X+"), EventKind::kInternal);
}

TEST(IpcmosStage, ShortCircuitCandidatesIncludePaperInvariants) {
  const Netlist nl = make_stage_netlist("I1", linear_channels(1));
  const auto candidates = nl.short_circuit_candidates();
  bool y = false, vint = false;
  for (NodeId n : candidates) {
    if (nl.node_name(n) == "I1.Y") y = true;
    if (nl.node_name(n) == "I1.Vint") vint = true;
  }
  EXPECT_TRUE(y) << "invariant (1): short circuit at Y";
  EXPECT_TRUE(vint) << "invariant (2): short circuit at Vint";
}

TEST(IpcmosStage, StrobeSwitchEnablingConditions) {
  // Paper Section 5.1: En(Y+) = !Y & !Z, En(Y-) = Y & ACK.
  const Module stage = make_stage(1);
  const TransitionSystem& ts = stage.ts();
  // From the initial state Y is high and ACK low: no Y event enabled.
  for (EventId e : ts.enabled_events(ts.initial())) {
    EXPECT_NE(ts.label(e), "I1.Y-");
    EXPECT_NE(ts.label(e), "I1.Y+");
  }
}

/// Table 1 row `row` (0-based) decided by `engine`.
EngineResult run_row(std::size_t row, const ExperimentConfig& cfg = {},
                     std::string_view engine = "refine") {
  const Suite suite = table1_suite(cfg);
  return engine_registry().find(engine)->run(suite.obligations()[row].request());
}

int refinements(const EngineResult& r) {
  return std::get<RefineEngineStats>(r.stats).refinements;
}

TEST(IpcmosExperiments, Experiment1NoRefinements) {
  const EngineResult r = run_row(0);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_EQ(refinements(r), 0);
}

TEST(IpcmosExperiments, Experiment2GuaranteesAout) {
  const EngineResult r = run_row(1);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GT(refinements(r), 0);
}

TEST(IpcmosExperiments, Experiment4FixedPoint) {
  const EngineResult r = run_row(3);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GT(refinements(r), 0);
}

TEST(IpcmosExperiments, Experiment5BackAnnotatesPaperOrderings) {
  const EngineResult r = run_row(4);
  ASSERT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GT(refinements(r), 0);
  const auto cs = std::get<RefineEngineStats>(r.stats).orderings();
  auto has = [&](const std::string& b, const std::string& a) {
    for (const DerivedOrdering& o : cs)
      if (o.before == b && o.after == a) return true;
    return false;
  };
  // Fig. 13(b): Z+ must be faster than ACK+ (invariant 1).
  EXPECT_TRUE(has("I1.Z+", "A1+"));
  // Fig. 13(c): Y- turns off the pass transistor before CLKE resets Vint.
  EXPECT_TRUE(has("I1.Y-", "I1.CLKE-"));
}

TEST(IpcmosExperiments, ZoneEngineConfirmsExperiment5) {
  const EngineResult z = run_row(4, {}, "zone");
  EXPECT_EQ(z.verdict, Verdict::kVerified) << z.message;
}

TEST(IpcmosExperiments, BrokenTimingIsRejected) {
  // Slowing Y's fall (the isolation after ACK+) breaks invariant (2):
  // CLKE precharges Vint while the pass transistor still conducts.
  ExperimentConfig cfg;
  cfg.timing.stage.y_fall = DelayInterval::units(6, 8);
  EXPECT_EQ(run_row(4, cfg).verdict, Verdict::kViolated);
  EXPECT_EQ(run_row(4, cfg, "zone").verdict, Verdict::kViolated);
}

TEST(IpcmosExperiments, Table1HasFiveVerifiedRows) {
  const Suite suite = table1_suite();
  ASSERT_EQ(suite.size(), 5u);
  std::vector<int> counts;
  std::vector<std::size_t> composed, explored;
  for (const Obligation& ob : suite.obligations()) {
    const EngineResult r = engine_registry().find("refine")->run(ob.request());
    EXPECT_EQ(r.verdict, Verdict::kVerified) << ob.name;
    counts.push_back(refinements(r));
    composed.push_back(std::get<RefineEngineStats>(r.stats).composed_states);
    explored.push_back(r.states_explored);
  }
  // Experiment 5 (both ends pulse-driven) needs the most refinements,
  // experiment 1 none — the shape of the paper's Table 1.
  EXPECT_EQ(counts[0], 0);
  EXPECT_GE(counts[4], counts[1]);
  // Exact numbers: the refinement counts, the composed states (Table 1's
  // States column) and the refined states of the final, verifying failure
  // search.  The refined search must explore the same states in the same
  // order whatever its state encoding.
  EXPECT_EQ(counts, (std::vector<int>{0, 19, 26, 19, 25}));
  EXPECT_EQ(composed, (std::vector<std::size_t>{6, 8016, 8920, 6680, 10704}));
  EXPECT_EQ(explored,
            (std::vector<std::size_t>{6, 16074, 117366, 16210, 129126}));
}

TEST(IpcmosPipeline, TwoStageCompositionIsFiniteAndAlive) {
  // Restrict to a budget: the flat 2-stage product is large but its
  // reachable prefix must show live handshake activity.
  const ModuleSet set = flat_pipeline(2);
  ComposeOptions opts;
  opts.max_states = 30000;
  const Composition c = compose(set.ptrs, opts);
  EXPECT_TRUE(c.truncated);  // the paper: flat verification blows up
  EXPECT_GT(c.ts.num_states(), 10000u);
}

}  // namespace
}  // namespace rtv::ipcmos
