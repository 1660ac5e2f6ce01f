// The obligations of the three workloads.
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/serve/cache.hpp"

namespace rtvbench {

using rtv::serve::PropertySpec;

namespace {

/// Parks `suite` in `set` and appends one item per obligation whose index
/// is in [first, suite size).
void append_suite(ItemSet& set, rtv::Suite suite, std::size_t first,
                  const std::string& prefix) {
  set.suites.push_back(std::move(suite));
  const rtv::Suite& owned = set.suites.back();
  for (std::size_t i = first; i < owned.size(); ++i) {
    const rtv::Obligation& ob = owned.obligations()[i];
    Item item;
    item.name = prefix + ob.name;
    item.modules = ob.modules;
    item.properties = ob.properties;
    item.max_refinements = ob.max_refinements;
    item.track_chokes = ob.track_chokes;
    item.wire = to_wire(item.name, item.modules, item.properties,
                        item.max_refinements, item.track_chokes);
    set.items.push_back(std::move(item));
  }
}

/// One point of the slack grid: a stage delay whose upper bound is pushed
/// past the lower bound of the event the paper orders it against.
struct SlackPoint {
  const char* name;
  void (*set)(rtv::ipcmos::StageTiming&);
};

// See README.md, "Slack grid", for the ordering behind each point.
constexpr SlackPoint kSlackGrid[] = {
    {"y_fall.hi=3.5",
     [](rtv::ipcmos::StageTiming& t) { t.y_fall = rtv::DelayInterval::units(1, 3.5); }},
    {"y_fall.hi=4.5",
     [](rtv::ipcmos::StageTiming& t) { t.y_fall = rtv::DelayInterval::units(1, 4.5); }},
    {"z_rise.hi=9",
     [](rtv::ipcmos::StageTiming& t) { t.z_rise = rtv::DelayInterval::units(0, 9); }},
    {"z_rise.hi=10",
     [](rtv::ipcmos::StageTiming& t) { t.z_rise = rtv::DelayInterval::units(0, 10); }},
    {"r_fall.hi=6",
     [](rtv::ipcmos::StageTiming& t) { t.r_fall = rtv::DelayInterval::units(1, 6); }},
    {"r_fall.hi=7",
     [](rtv::ipcmos::StageTiming& t) { t.r_fall = rtv::DelayInterval::units(1, 7); }},
};

}  // namespace

rtv::serve::WireObligation to_wire(
    const std::string& name, const std::vector<const rtv::Module*>& modules,
    const std::vector<const rtv::SafetyProperty*>& properties,
    std::size_t max_refinements, bool track_chokes) {
  rtv::serve::WireObligation ob;
  ob.name = name;
  for (const rtv::Module* m : modules) ob.modules.push_back(*m);
  for (const rtv::SafetyProperty* p : properties) {
    if (const auto* inv = dynamic_cast<const rtv::InvariantProperty*>(p)) {
      std::vector<PropertySpec::Literal> lits;
      for (const auto& l : inv->forbidden()) lits.push_back({l.signal, l.value});
      ob.properties.push_back(PropertySpec::invariant(inv->name(), lits));
    } else if (const auto* per =
                   dynamic_cast<const rtv::PersistencyProperty*>(p)) {
      ob.properties.push_back(PropertySpec::persistency(per->exempt()));
    } else if (dynamic_cast<const rtv::DeadlockFreedom*>(p)) {
      ob.properties.push_back(PropertySpec::deadlock());
    } else {
      throw std::runtime_error("property '" + p->name() +
                               "' has no wire form");
    }
  }
  ob.max_refinements = max_refinements;
  ob.track_chokes = track_chokes;
  return ob;
}

ItemSet table1_items() {
  ItemSet set;
  append_suite(set, rtv::ipcmos::table1_suite(), 0, "");
  return set;
}

ItemSet slack_items(bool small) {
  ItemSet set;
  std::size_t n = 0;
  for (const SlackPoint& p : kSlackGrid) {
    // The small mode keeps the first point of each ordering.
    if (small && n++ % 2 == 1) continue;
    rtv::ipcmos::ExperimentConfig cfg;
    p.set(cfg.timing.stage);
    // Experiment 1 (Ain || Aout) has no stage, so no delay to push.
    append_suite(set, rtv::ipcmos::table1_suite(cfg), 1,
                 std::string(p.name) + " ");
  }
  return set;
}

rtv::fuzz::GeneratorConfig pool_config() {
  // The generator's defaults, except that the fork-join shape stays off:
  // refine leaves rare fork-join cases undecided (README.md, "Service pool").
  rtv::fuzz::GeneratorConfig c;
  c.gates = false;
  return c;
}

std::size_t pool_size(bool small) { return small ? 12 : 4096; }

ItemSet service_items(std::uint64_t seed, std::size_t count) {
  ItemSet set;
  const rtv::fuzz::GeneratorConfig config = pool_config();
  // Distinct cache keys, so the cold pass is all misses: a seed whose
  // obligation collides with an earlier one is skipped.
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (std::size_t index = 0; set.items.size() < count; ++index) {
    rtv::fuzz::Scenario sc =
        rtv::fuzz::generate(rtv::fuzz::case_seed(seed, index), config);
    Item item;
    item.name = "pool-" + std::to_string(index);
    item.wire = to_wire(item.name, sc.module_ptrs(), sc.property_ptrs(), 500,
                        true);
    const rtv::serve::CacheKey key = rtv::serve::obligation_cache_key(
        item.wire, rtv::SuiteMode::kBatch, {"refine", "zone", "discrete"}, 0,
        0.0, 500);
    if (!keys.insert({key.hi, key.lo}).second) continue;
    set.scenarios.push_back(std::move(sc));
    item.modules = set.scenarios.back().module_ptrs();
    item.properties = set.scenarios.back().property_ptrs();
    set.items.push_back(std::move(item));
  }
  return set;
}

rtv::EngineResult run_engine(const rtv::Engine& engine, const Item& item) {
  rtv::EngineRequest req;
  req.modules = item.modules;
  req.properties = item.properties;
  req.max_refinements = item.max_refinements;
  req.track_chokes = item.track_chokes;
  req.jobs = 1;
  return engine.run(req);
}

}  // namespace rtvbench
