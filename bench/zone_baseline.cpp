// Baseline comparison: relative-timing refinement vs exact zone-graph
// (DBM) timed reachability.
//
// The paper motivates relative timing by the cost of exact timed state
// spaces (PSPACE-hard reachability, zone/region explosion).  This bench
// runs both engines on the same obligations and reports cost and verdict
// agreement — the zone engine doubles as the ground truth.
#include <cstdio>
#include <optional>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ts/gallery.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

int main() {
  bool agree = true;
  const Engine& refine = *engine_registry().find("refine");
  const Engine& zone = *engine_registry().find("zone");

  std::printf("%-34s %12s %12s %10s %10s %8s\n", "system", "rt-verdict",
              "zone-verdict", "rt-states", "zones", "agree");

  // Both engines on one request; `expect_ok` (when set) is the known answer.
  const auto compare = [&](const char* name, const EngineRequest& req,
                           std::optional<bool> expect_ok) {
    const EngineResult rt = refine.run(req);
    const EngineResult zn = zone.run(req);
    const bool ok = (rt.verdict == Verdict::kVerified) == !zn.violated() &&
                    (!expect_ok || !zn.violated() == *expect_ok);
    agree = agree && ok;
    std::printf("%-34s %12s %12s %10zu %10zu %8s\n", name, to_string(rt.verdict),
                zn.violated() ? "violated" : "holds", rt.states_explored,
                zn.states_explored, ok ? "yes" : "NO");
  };

  // Intro example.
  {
    const Module sys = gallery::intro_example();
    const Module mon = gallery::order_monitor("g", "d");
    const InvariantProperty bad("g before d", {{"fail", true}});
    compare("intro example", {.modules = {&sys, &mon}, .properties = {&bad}},
            std::nullopt);
  }

  // 1-stage IPCMOS pipeline (Table 1's experiment 5) under three timings.
  const auto run_stage = [&](const char* name, const ExperimentConfig& cfg,
                             bool expect_ok) {
    const Suite table1 = table1_suite(cfg);
    compare(name, table1.obligations()[4].request(), expect_ok);
  };

  ExperimentConfig good;
  run_stage("IPCMOS 1-stage (nominal delays)", good, true);

  ExperimentConfig slow_y;
  slow_y.timing.stage.y_fall = DelayInterval::units(6, 8);
  run_stage("IPCMOS 1-stage (slow Y-)", slow_y, false);

  ExperimentConfig slow_z;
  slow_z.timing.stage.z_rise = DelayInterval::units(9, 12);
  run_stage("IPCMOS 1-stage (slow Z+)", slow_z, false);

  std::printf("\nverdict agreement on all systems: %s\n", agree ? "yes" : "NO");
  std::printf("(the refinement engine explores the untimed product plus\n"
              " derived constraints; the zone engine pays for exact clock\n"
              " polyhedra — the paper's motivation for relative timing)\n");
  return agree ? 0 : 1;
}
