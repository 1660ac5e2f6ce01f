#include "rtv/verify/containment.hpp"

namespace rtv {

EngineResult check_containment(
    const std::vector<const Module*>& system, const Module& abstraction,
    const std::vector<const SafetyProperty*>& extra_properties,
    EngineRequest request) {
  // The abstraction participates as a monitor: it observes every event of
  // its alphabet, constrains neither timing nor enabling, and any event it
  // cannot accept surfaces as a choke in the composition.
  const Module monitor = abstraction.as_monitor(abstraction.name() + "'");
  request.modules = system;
  request.modules.push_back(&monitor);
  request.properties = extra_properties;
  request.track_chokes = true;
  return engine_registry().find("refine")->run(request);
}

}  // namespace rtv
