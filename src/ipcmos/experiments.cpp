#include "rtv/ipcmos/experiments.hpp"

#include "rtv/circuit/invariants.hpp"

namespace rtv::ipcmos {

namespace {

/// Owning property bundle.
struct PropertySet {
  std::vector<std::unique_ptr<SafetyProperty>> owned;
  std::vector<const SafetyProperty*> ptrs;

  void add(std::unique_ptr<SafetyProperty> p) {
    owned.push_back(std::move(p));
    ptrs.push_back(owned.back().get());
  }
};

/// Deadlock-freedom, persistency and the short-circuit invariants of a
/// transistor-level stage (Section 5.1).
PropertySet stage_properties(int stage_index, const PipelineTiming& t) {
  PropertySet ps;
  ps.add(std::make_unique<DeadlockFreedom>());
  ps.add(std::make_unique<PersistencyProperty>());
  const Netlist nl =
      make_stage_netlist("I" + std::to_string(stage_index),
                         linear_channels(stage_index), t.stage);
  for (auto& p : short_circuit_properties(nl)) ps.add(std::move(p));
  return ps;
}

}  // namespace

Suite table1_suite(const ExperimentConfig& cfg) {
  Suite suite;
  // Transfer an owning property bundle into the suite, returning the views
  // an obligation composes over.
  const auto own_props = [&suite](PropertySet ps) {
    std::vector<const SafetyProperty*> ptrs;
    ptrs.reserve(ps.owned.size());
    for (auto& p : ps.owned) ptrs.push_back(suite.own(std::move(p)));
    return ptrs;
  };
  // Containment obligations run the abstraction as a passive monitor, the
  // same construction as check_containment() (rtv/verify/containment.hpp).
  const auto monitor_of = [&suite](Module abstraction) {
    const std::string name = abstraction.name() + "'";
    return suite.own(abstraction.as_monitor(name));
  };
  const auto configure = [&cfg](Obligation& ob) {
    ob.max_refinements = cfg.verify.max_refinements;
    ob.budget.max_states = cfg.verify.max_states;
  };

  {
    // 1. A_in || A_out |= S at boundary 1 (deadlock-freedom; protocol
    // conformance is structural).
    PropertySet ps;
    ps.add(std::make_unique<DeadlockFreedom>());
    configure(suite.add("1. Ain || Aout |= S",
                        {suite.own(make_ain(1)), suite.own(make_aout(1))},
                        own_props(std::move(ps))));
  }
  {
    // 2. Guarantee A_out:  A_in || I || OUT  <=  A_out at boundary 1.
    configure(suite.add(
        "2. Ain || I || OUT <= Aout",
        {suite.own(make_ain(1)), suite.own(make_stage(1, cfg.timing)),
         suite.own(make_out_env(1, cfg.timing)), monitor_of(make_aout(1))},
        own_props(stage_properties(1, cfg.timing))));
  }
  {
    // 3. Guarantee A_in (induction base):  IN || I || A_out  <=  A_in.
    configure(suite.add(
        "3. IN || I || Aout <= Ain",
        {suite.own(make_in_env(cfg.timing)),
         suite.own(make_stage(1, cfg.timing)), suite.own(make_aout(2)),
         monitor_of(make_ain(2))},
        own_props(stage_properties(1, cfg.timing))));
  }
  {
    // 4. A_in is a behavioural fixed point:  A_in || I || A_out  <=  A_in.
    configure(suite.add(
        "4. Ain || I || Aout <= Ain (fixed point)",
        {suite.own(make_ain(1)), suite.own(make_stage(1, cfg.timing)),
         suite.own(make_aout(2)), monitor_of(make_ain(2))},
        own_props(stage_properties(1, cfg.timing))));
  }
  {
    // 5. IN || I || OUT |= S — the 1-stage pipeline, both ends pulsed.
    ModuleSet set = flat_pipeline(1, cfg.timing);
    std::vector<const Module*> modules;
    for (auto& m : set.owned) modules.push_back(suite.own(std::move(*m)));
    PropertySet ps;
    ps.add(std::make_unique<DeadlockFreedom>());
    ps.add(std::make_unique<PersistencyProperty>());
    const Netlist nl =
        make_stage_netlist("I1", linear_channels(1), cfg.timing.stage);
    for (auto& p : short_circuit_properties(nl)) ps.add(std::move(p));
    configure(suite.add("5. IN || I || OUT |= S", std::move(modules),
                        own_props(std::move(ps))));
  }
  return suite;
}

}  // namespace rtv::ipcmos
